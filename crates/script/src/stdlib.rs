//! Builtin functions: math, strings, arrays, and the analysis host calls.
//!
//! Builtins are identified by the dense [`Builtin`] enum so the bytecode
//! resolver can bind call sites at compile time and the VM can dispatch
//! through a jump-table `match` instead of a string comparison chain. The
//! tree-walk interpreter still enters through [`call_builtin`], which is a
//! name lookup in front of the same [`dispatch_builtin`].

use ipa_dataset::RecordFields;

use crate::error::ScriptError;
use crate::interp::Host;
use crate::value::Value;

/// Maximum bins a script may book per histogram axis. Booking is host
/// memory, so a typo like `h1("x", 1e12, …)` must fail in the script, not
/// attempt a terabyte-scale allocation.
pub const MAX_BINS: usize = 1_000_000;

fn want_num(v: &Value, what: &str, line: u32) -> Result<f64, ScriptError> {
    v.as_num().ok_or_else(|| {
        ScriptError::runtime(
            format!("{what} must be numeric, got {}", v.type_name()),
            line,
        )
    })
}

fn want_str<'a>(v: &'a Value, what: &str, line: u32) -> Result<&'a str, ScriptError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(ScriptError::runtime(
            format!("{what} must be a string, got {}", other.type_name()),
            line,
        )),
    }
}

/// Checked bin-count conversion for `h1`/`h2`/`prof`: rejects non-finite,
/// non-integral, zero/negative, and over-cap counts instead of silently
/// truncating through `as usize`.
fn want_bins(v: &Value, what: &str, line: u32) -> Result<usize, ScriptError> {
    let n = want_num(v, what, line)?;
    if !n.is_finite() || n.fract() != 0.0 {
        return Err(ScriptError::runtime(
            format!("{what} must be a whole number, got {n}"),
            line,
        ));
    }
    if n < 1.0 {
        return Err(ScriptError::runtime(
            format!("{what} must be at least 1, got {n}"),
            line,
        ));
    }
    if n > MAX_BINS as f64 {
        return Err(ScriptError::runtime(
            format!("{what} must be at most {MAX_BINS}, got {n}"),
            line,
        ));
    }
    Ok(n as usize)
}

/// Checked numeric-to-index conversion shared by `substr()`, `slice()` and
/// the indexing operators `a[i]` / `a[i] = v`: NaN/infinite and negative
/// values are errors instead of silently saturating to 0; fractional parts
/// truncate toward zero.
pub(crate) fn checked_index(n: f64, what: &str, line: u32) -> Result<usize, ScriptError> {
    if !n.is_finite() {
        return Err(ScriptError::runtime(
            format!("{what} must be finite, got {n}"),
            line,
        ));
    }
    if n < 0.0 {
        return Err(ScriptError::runtime(
            format!("{what} must not be negative, got {n}"),
            line,
        ));
    }
    Ok(n as usize)
}

fn want_index(v: &Value, what: &str, line: u32) -> Result<usize, ScriptError> {
    checked_index(want_num(v, what, line)?, what, line)
}

fn arity(
    name: &str,
    args: &[Value],
    expect: std::ops::RangeInclusive<usize>,
    line: u32,
) -> Result<(), ScriptError> {
    if expect.contains(&args.len()) {
        Ok(())
    } else {
        Err(ScriptError::runtime(
            format!(
                "{name}() takes {}..{} arguments, got {}",
                expect.start(),
                expect.end(),
                args.len()
            ),
            line,
        ))
    }
}

/// Dense builtin identifiers. The bytecode resolver stores one of these in
/// each `CallBuiltin` instruction; user functions win name clashes, so the
/// resolver consults [`Builtin::lookup`] only after the function table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `sqrt(x)`
    Sqrt,
    /// `abs(x)`
    Abs,
    /// `ln(x)`
    Ln,
    /// `log10(x)`
    Log10,
    /// `exp(x)`
    Exp,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
    /// `tan(x)`
    Tan,
    /// `floor(x)`
    Floor,
    /// `ceil(x)`
    Ceil,
    /// `round(x)`
    Round,
    /// `pow(a, b)`
    Pow,
    /// `atan2(a, b)`
    Atan2,
    /// `min(a, b)`
    Min,
    /// `max(a, b)`
    Max,
    /// `pi()`
    Pi,
    /// `num(v)`
    Num,
    /// `str(v)`
    Str,
    /// `is_null(v)`
    IsNull,
    /// `len(s_or_array)`
    Len,
    /// `substr(s, start, n)`
    Substr,
    /// `contains(s, sub)`
    Contains,
    /// `count_matches(s, sub)`
    CountMatches,
    /// `upper(s)`
    Upper,
    /// `lower(s)`
    Lower,
    /// `append(array, v)`
    Append,
    /// `field(record, name)`
    Field,
    /// `fields(record)`
    Fields,
    /// `h1(path, nbins, lo, hi)`
    H1,
    /// `h2(path, nx, xlo, xhi, ny, ylo, yhi)`
    H2,
    /// `prof(path, nbins, lo, hi)`
    Prof,
    /// `fill(path, x, w?)`
    Fill,
    /// `fill2(path, x, y, w?)`
    Fill2,
    /// `pfill(path, x, y, w?)`
    Pfill,
    /// `log(v)`
    Log,
    /// `cloud1(path)`
    Cloud1,
    /// `tuple(path, columns)`
    Tuple,
    /// `tfill(path, v…)`
    Tfill,
    /// `cfill(path, x, w?)`
    Cfill,
    /// `sum(array)`
    Sum,
    /// `avg(array)`
    Avg,
    /// `min_of(array)`
    MinOf,
    /// `max_of(array)`
    MaxOf,
    /// `sort(array)`
    Sort,
    /// `reverse(array_or_s)`
    Reverse,
    /// `slice(array, start, n)`
    Slice,
    /// `split(s, sep)`
    Split,
    /// `join(array, sep)`
    Join,
    /// `trim(s)`
    Trim,
}

impl Builtin {
    /// Resolve a builtin by its script-visible name.
    pub fn lookup(name: &str) -> Option<Builtin> {
        Some(match name {
            "sqrt" => Builtin::Sqrt,
            "abs" => Builtin::Abs,
            "ln" => Builtin::Ln,
            "log10" => Builtin::Log10,
            "exp" => Builtin::Exp,
            "sin" => Builtin::Sin,
            "cos" => Builtin::Cos,
            "tan" => Builtin::Tan,
            "floor" => Builtin::Floor,
            "ceil" => Builtin::Ceil,
            "round" => Builtin::Round,
            "pow" => Builtin::Pow,
            "atan2" => Builtin::Atan2,
            "min" => Builtin::Min,
            "max" => Builtin::Max,
            "pi" => Builtin::Pi,
            "num" => Builtin::Num,
            "str" => Builtin::Str,
            "is_null" => Builtin::IsNull,
            "len" => Builtin::Len,
            "substr" => Builtin::Substr,
            "contains" => Builtin::Contains,
            "count_matches" => Builtin::CountMatches,
            "upper" => Builtin::Upper,
            "lower" => Builtin::Lower,
            "append" => Builtin::Append,
            "field" => Builtin::Field,
            "fields" => Builtin::Fields,
            "h1" => Builtin::H1,
            "h2" => Builtin::H2,
            "prof" => Builtin::Prof,
            "fill" => Builtin::Fill,
            "fill2" => Builtin::Fill2,
            "pfill" => Builtin::Pfill,
            "log" => Builtin::Log,
            "cloud1" => Builtin::Cloud1,
            "tuple" => Builtin::Tuple,
            "tfill" => Builtin::Tfill,
            "cfill" => Builtin::Cfill,
            "sum" => Builtin::Sum,
            "avg" => Builtin::Avg,
            "min_of" => Builtin::MinOf,
            "max_of" => Builtin::MaxOf,
            "sort" => Builtin::Sort,
            "reverse" => Builtin::Reverse,
            "slice" => Builtin::Slice,
            "split" => Builtin::Split,
            "join" => Builtin::Join,
            "trim" => Builtin::Trim,
            _ => return None,
        })
    }

    /// The script-visible name (for error messages).
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Sqrt => "sqrt",
            Builtin::Abs => "abs",
            Builtin::Ln => "ln",
            Builtin::Log10 => "log10",
            Builtin::Exp => "exp",
            Builtin::Sin => "sin",
            Builtin::Cos => "cos",
            Builtin::Tan => "tan",
            Builtin::Floor => "floor",
            Builtin::Ceil => "ceil",
            Builtin::Round => "round",
            Builtin::Pow => "pow",
            Builtin::Atan2 => "atan2",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Pi => "pi",
            Builtin::Num => "num",
            Builtin::Str => "str",
            Builtin::IsNull => "is_null",
            Builtin::Len => "len",
            Builtin::Substr => "substr",
            Builtin::Contains => "contains",
            Builtin::CountMatches => "count_matches",
            Builtin::Upper => "upper",
            Builtin::Lower => "lower",
            Builtin::Append => "append",
            Builtin::Field => "field",
            Builtin::Fields => "fields",
            Builtin::H1 => "h1",
            Builtin::H2 => "h2",
            Builtin::Prof => "prof",
            Builtin::Fill => "fill",
            Builtin::Fill2 => "fill2",
            Builtin::Pfill => "pfill",
            Builtin::Log => "log",
            Builtin::Cloud1 => "cloud1",
            Builtin::Tuple => "tuple",
            Builtin::Tfill => "tfill",
            Builtin::Cfill => "cfill",
            Builtin::Sum => "sum",
            Builtin::Avg => "avg",
            Builtin::MinOf => "min_of",
            Builtin::MaxOf => "max_of",
            Builtin::Sort => "sort",
            Builtin::Reverse => "reverse",
            Builtin::Slice => "slice",
            Builtin::Split => "split",
            Builtin::Join => "join",
            Builtin::Trim => "trim",
        }
    }
}

/// Try to dispatch a builtin by name. Returns `None` when `name` is not a
/// builtin so the interpreter can report an unknown function.
pub fn call_builtin(
    name: &str,
    args: &[Value],
    line: u32,
    host: &mut dyn Host,
) -> Option<Result<Value, ScriptError>> {
    Builtin::lookup(name).map(|b| dispatch_builtin(b, args, line, host))
}

/// Execute a resolved builtin. Both backends funnel through this, so the
/// VM and the tree-walk interpreter agree on results and error messages.
pub fn dispatch_builtin(
    b: Builtin,
    args: &[Value],
    line: u32,
    host: &mut dyn Host,
) -> Result<Value, ScriptError> {
    let name = b.name();
    match b {
        // ------------------------------------------------------- math ----
        Builtin::Sqrt
        | Builtin::Abs
        | Builtin::Ln
        | Builtin::Log10
        | Builtin::Exp
        | Builtin::Sin
        | Builtin::Cos
        | Builtin::Tan
        | Builtin::Floor
        | Builtin::Ceil
        | Builtin::Round => {
            arity(name, args, 1..=1, line)?;
            let x = want_num(&args[0], "argument", line)?;
            let y = match b {
                Builtin::Sqrt => x.sqrt(),
                Builtin::Abs => x.abs(),
                Builtin::Ln => x.ln(),
                Builtin::Log10 => x.log10(),
                Builtin::Exp => x.exp(),
                Builtin::Sin => x.sin(),
                Builtin::Cos => x.cos(),
                Builtin::Tan => x.tan(),
                Builtin::Floor => x.floor(),
                Builtin::Ceil => x.ceil(),
                Builtin::Round => x.round(),
                _ => unreachable!(),
            };
            Ok(Value::Num(y))
        }
        Builtin::Pow | Builtin::Atan2 | Builtin::Min | Builtin::Max => {
            arity(name, args, 2..=2, line)?;
            let a = want_num(&args[0], "argument", line)?;
            let bb = want_num(&args[1], "argument", line)?;
            let y = match b {
                Builtin::Pow => a.powf(bb),
                Builtin::Atan2 => a.atan2(bb),
                Builtin::Min => a.min(bb),
                Builtin::Max => a.max(bb),
                _ => unreachable!(),
            };
            Ok(Value::Num(y))
        }
        Builtin::Pi => {
            arity(name, args, 0..=0, line)?;
            Ok(Value::Num(std::f64::consts::PI))
        }
        // ------------------------------------------------ conversions ----
        Builtin::Num => {
            arity(name, args, 1..=1, line)?;
            Ok(match &args[0] {
                Value::Num(n) => Value::Num(*n),
                Value::Bool(b) => Value::Num(if *b { 1.0 } else { 0.0 }),
                Value::Str(s) => s
                    .trim()
                    .parse::<f64>()
                    .map(Value::Num)
                    .unwrap_or(Value::Null),
                _ => Value::Null,
            })
        }
        Builtin::Str => {
            arity(name, args, 1..=1, line)?;
            Ok(Value::str(args[0].to_string()))
        }
        Builtin::IsNull => {
            arity(name, args, 1..=1, line)?;
            Ok(Value::Bool(matches!(args[0], Value::Null)))
        }
        // ------------------------------------------------ strings/arrays --
        Builtin::Len => {
            arity(name, args, 1..=1, line)?;
            match &args[0] {
                Value::Str(s) => Ok(Value::Num(s.chars().count() as f64)),
                Value::Array(a) => Ok(Value::Num(a.len() as f64)),
                other => Err(ScriptError::runtime(
                    format!("len() needs a string or array, got {}", other.type_name()),
                    line,
                )),
            }
        }
        Builtin::Substr => {
            arity(name, args, 3..=3, line)?;
            let s = want_str(&args[0], "substr() target", line)?;
            let start = want_index(&args[1], "substr() start", line)?;
            let n = want_index(&args[2], "substr() length", line)?;
            let out: String = s.chars().skip(start).take(n).collect();
            Ok(Value::str(out))
        }
        Builtin::Contains => {
            arity(name, args, 2..=2, line)?;
            let s = want_str(&args[0], "contains() target", line)?;
            let sub = want_str(&args[1], "contains() pattern", line)?;
            Ok(Value::Bool(s.contains(sub)))
        }
        Builtin::CountMatches => {
            arity(name, args, 2..=2, line)?;
            let s = want_str(&args[0], "count_matches() target", line)?;
            let sub = want_str(&args[1], "count_matches() pattern", line)?;
            if sub.is_empty() || sub.len() > s.len() {
                return Ok(Value::Num(0.0));
            }
            // Overlapping count (matches DnaRead::count_motif semantics).
            let (sb, mb) = (s.as_bytes(), sub.as_bytes());
            let c = (0..=sb.len() - mb.len())
                .filter(|&i| &sb[i..i + mb.len()] == mb)
                .count();
            Ok(Value::Num(c as f64))
        }
        Builtin::Upper => {
            arity(name, args, 1..=1, line)?;
            Ok(Value::str(
                want_str(&args[0], "upper() target", line)?.to_uppercase(),
            ))
        }
        Builtin::Lower => {
            arity(name, args, 1..=1, line)?;
            Ok(Value::str(
                want_str(&args[0], "lower() target", line)?.to_lowercase(),
            ))
        }
        Builtin::Append => {
            arity(name, args, 2..=2, line)?;
            match &args[0] {
                Value::Array(a) => {
                    let mut out = Vec::with_capacity(a.len() + 1);
                    out.extend(a.iter().cloned());
                    out.push(args[1].clone());
                    Ok(Value::array(out))
                }
                other => Err(ScriptError::runtime(
                    format!("append() needs an array, got {}", other.type_name()),
                    line,
                )),
            }
        }
        // ---------------------------------------------------- records ----
        Builtin::Field => {
            arity(name, args, 2..=2, line)?;
            let Value::Record(r) = &args[0] else {
                return Err(ScriptError::runtime(
                    format!("field() needs a record, got {}", args[0].type_name()),
                    line,
                ));
            };
            let fname = want_str(&args[1], "field() name", line)?;
            match r.field(fname) {
                Some(f) => Ok(Value::from_field(f)),
                None => Err(ScriptError::runtime(
                    format!("record kind '{}' has no field '{fname}'", r.kind()),
                    line,
                )),
            }
        }
        Builtin::Fields => {
            arity(name, args, 1..=1, line)?;
            let Value::Record(r) = &args[0] else {
                return Err(ScriptError::runtime(
                    "fields() needs a record".to_string(),
                    line,
                ));
            };
            Ok(Value::array(
                r.field_names().iter().map(|n| Value::str(*n)).collect(),
            ))
        }
        // ------------------------------------------------------- host ----
        Builtin::H1 => {
            arity(name, args, 4..=4, line)?;
            let path = want_str(&args[0], "h1() path", line)?;
            let nbins = want_bins(&args[1], "h1() nbins", line)?;
            let lo = want_num(&args[2], "h1() lo", line)?;
            let hi = want_num(&args[3], "h1() hi", line)?;
            host.book_h1(path, nbins, lo, hi)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::H2 => {
            arity(name, args, 7..=7, line)?;
            let path = want_str(&args[0], "h2() path", line)?;
            let nx = want_bins(&args[1], "h2() nx", line)?;
            let xlo = want_num(&args[2], "h2() xlo", line)?;
            let xhi = want_num(&args[3], "h2() xhi", line)?;
            let ny = want_bins(&args[4], "h2() ny", line)?;
            let ylo = want_num(&args[5], "h2() ylo", line)?;
            let yhi = want_num(&args[6], "h2() yhi", line)?;
            host.book_h2(path, nx, xlo, xhi, ny, ylo, yhi)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::Prof => {
            arity(name, args, 4..=4, line)?;
            let path = want_str(&args[0], "prof() path", line)?;
            let nbins = want_bins(&args[1], "prof() nbins", line)?;
            let lo = want_num(&args[2], "prof() lo", line)?;
            let hi = want_num(&args[3], "prof() hi", line)?;
            host.book_profile(path, nbins, lo, hi)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::Fill => {
            arity(name, args, 2..=3, line)?;
            let path = want_str(&args[0], "fill() path", line)?;
            let x = want_num(&args[1], "fill() x", line)?;
            let w = if args.len() == 3 {
                want_num(&args[2], "fill() weight", line)?
            } else {
                1.0
            };
            host.fill1(path, x, w)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::Fill2 => {
            arity(name, args, 3..=4, line)?;
            let path = want_str(&args[0], "fill2() path", line)?;
            let x = want_num(&args[1], "fill2() x", line)?;
            let y = want_num(&args[2], "fill2() y", line)?;
            let w = if args.len() == 4 {
                want_num(&args[3], "fill2() weight", line)?
            } else {
                1.0
            };
            host.fill2(path, x, y, w)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::Pfill => {
            arity(name, args, 3..=4, line)?;
            let path = want_str(&args[0], "pfill() path", line)?;
            let x = want_num(&args[1], "pfill() x", line)?;
            let y = want_num(&args[2], "pfill() y", line)?;
            let w = if args.len() == 4 {
                want_num(&args[3], "pfill() weight", line)?
            } else {
                1.0
            };
            host.fill_profile(path, x, y, w)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::Log => {
            arity(name, args, 1..=1, line)?;
            host.log(&format!("{}", args[0]));
            Ok(Value::Null)
        }
        Builtin::Cloud1 => {
            arity(name, args, 1..=1, line)?;
            let path = want_str(&args[0], "cloud1() path", line)?;
            host.book_cloud1(path)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::Tuple => {
            arity(name, args, 2..=2, line)?;
            let path = want_str(&args[0], "tuple() path", line)?;
            let cols_text = want_str(&args[1], "tuple() columns", line)?;
            let cols: Vec<&str> = cols_text.split(',').map(str::trim).collect();
            if cols.iter().any(|c| c.is_empty()) {
                return Err(ScriptError::runtime(
                    "tuple() columns must be non-empty",
                    line,
                ));
            }
            host.book_tuple(path, &cols)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::Tfill => {
            arity(name, args, 2..=17, line)?;
            let path = want_str(&args[0], "tfill() path", line)?;
            let mut row = Vec::with_capacity(args.len() - 1);
            for v in &args[1..] {
                row.push(want_num(v, "tfill() value", line)?);
            }
            host.fill_tuple(path, &row)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        Builtin::Cfill => {
            arity(name, args, 2..=3, line)?;
            let path = want_str(&args[0], "cfill() path", line)?;
            let x = want_num(&args[1], "cfill() x", line)?;
            let w = if args.len() == 3 {
                want_num(&args[2], "cfill() weight", line)?
            } else {
                1.0
            };
            host.fill_cloud1(path, x, w)
                .map_err(|e| ScriptError::runtime(e, line))?;
            Ok(Value::Null)
        }
        // ----------------------------------------------- array helpers ---
        Builtin::Sum | Builtin::Avg | Builtin::MinOf | Builtin::MaxOf => {
            arity(name, args, 1..=1, line)?;
            let Value::Array(a) = &args[0] else {
                return Err(ScriptError::runtime(
                    format!("{name}() needs an array, got {}", args[0].type_name()),
                    line,
                ));
            };
            let mut nums = Vec::with_capacity(a.len());
            for v in a.iter() {
                nums.push(want_num(v, "array element", line)?);
            }
            if nums.is_empty() {
                return Ok(match b {
                    Builtin::Sum => Value::Num(0.0),
                    _ => Value::Null,
                });
            }
            let out = match b {
                Builtin::Sum => nums.iter().sum(),
                Builtin::Avg => nums.iter().sum::<f64>() / nums.len() as f64,
                Builtin::MinOf => nums.iter().copied().fold(f64::INFINITY, f64::min),
                Builtin::MaxOf => nums.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                _ => unreachable!(),
            };
            Ok(Value::Num(out))
        }
        Builtin::Sort => {
            arity(name, args, 1..=1, line)?;
            let Value::Array(a) = &args[0] else {
                return Err(ScriptError::runtime(
                    "sort() needs an array".to_string(),
                    line,
                ));
            };
            let mut nums = Vec::with_capacity(a.len());
            for v in a.iter() {
                nums.push(want_num(v, "array element", line)?);
            }
            nums.sort_by(|x, y| x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal));
            Ok(Value::array(nums.into_iter().map(Value::Num).collect()))
        }
        Builtin::Reverse => {
            arity(name, args, 1..=1, line)?;
            match &args[0] {
                Value::Array(a) => Ok(Value::array(a.iter().rev().cloned().collect())),
                Value::Str(s) => Ok(Value::str(s.chars().rev().collect::<String>())),
                other => Err(ScriptError::runtime(
                    format!(
                        "reverse() needs an array or string, got {}",
                        other.type_name()
                    ),
                    line,
                )),
            }
        }
        Builtin::Slice => {
            arity(name, args, 3..=3, line)?;
            let Value::Array(a) = &args[0] else {
                return Err(ScriptError::runtime(
                    "slice() needs an array".to_string(),
                    line,
                ));
            };
            let start = want_index(&args[1], "slice() start", line)?;
            let n = want_index(&args[2], "slice() length", line)?;
            Ok(Value::array(
                a.iter().skip(start).take(n).cloned().collect(),
            ))
        }
        Builtin::Split => {
            arity(name, args, 2..=2, line)?;
            let s = want_str(&args[0], "split() target", line)?;
            let sep = want_str(&args[1], "split() separator", line)?;
            if sep.is_empty() {
                return Err(ScriptError::runtime(
                    "split() separator must not be empty",
                    line,
                ));
            }
            Ok(Value::array(s.split(sep).map(Value::str).collect()))
        }
        Builtin::Join => {
            arity(name, args, 2..=2, line)?;
            let Value::Array(a) = &args[0] else {
                return Err(ScriptError::runtime(
                    "join() needs an array".to_string(),
                    line,
                ));
            };
            let sep = want_str(&args[1], "join() separator", line)?;
            let parts: Vec<String> = a.iter().map(|v| format!("{v}")).collect();
            Ok(Value::str(parts.join(sep)))
        }
        Builtin::Trim => {
            arity(name, args, 1..=1, line)?;
            Ok(Value::str(
                want_str(&args[0], "trim() target", line)?.trim(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::NullHost;

    fn call(name: &str, args: &[Value]) -> Result<Value, ScriptError> {
        call_builtin(name, args, 1, &mut NullHost).expect("is a builtin")
    }

    #[test]
    fn lookup_and_name_round_trip() {
        for name in [
            "sqrt", "pow", "pi", "num", "str", "is_null", "len", "substr", "h1", "h2", "prof",
            "fill", "log", "tuple", "tfill", "sum", "slice", "split", "trim",
        ] {
            let b = Builtin::lookup(name).expect("known builtin");
            assert_eq!(b.name(), name);
        }
        assert!(Builtin::lookup("definitely_not_builtin").is_none());
    }

    #[test]
    fn math_builtins() {
        assert!(matches!(call("sqrt", &[Value::Num(9.0)]).unwrap(), Value::Num(n) if n == 3.0));
        assert!(
            matches!(call("pow", &[Value::Num(2.0), Value::Num(10.0)]).unwrap(), Value::Num(n) if n == 1024.0)
        );
        assert!(
            matches!(call("min", &[Value::Num(2.0), Value::Num(1.0)]).unwrap(), Value::Num(n) if n == 1.0)
        );
        assert!(matches!(call("abs", &[Value::Num(-2.0)]).unwrap(), Value::Num(n) if n == 2.0));
    }

    #[test]
    fn arity_and_type_errors() {
        assert!(call("sqrt", &[]).is_err());
        assert!(call("sqrt", &[Value::str("x")]).is_err());
        assert!(call("len", &[Value::Num(1.0)]).is_err());
    }

    #[test]
    fn conversions() {
        assert!(matches!(call("num", &[Value::str(" 2.5 ")]).unwrap(), Value::Num(n) if n == 2.5));
        assert!(matches!(
            call("num", &[Value::str("abc")]).unwrap(),
            Value::Null
        ));
        assert!(matches!(call("str", &[Value::Num(1.0)]).unwrap(), Value::Str(s) if &*s == "1"));
        assert!(matches!(
            call("is_null", &[Value::Null]).unwrap(),
            Value::Bool(true)
        ));
    }

    #[test]
    fn string_builtins() {
        assert!(matches!(call("len", &[Value::str("abcd")]).unwrap(), Value::Num(n) if n == 4.0));
        assert!(matches!(
            call("substr", &[Value::str("abcdef"), Value::Num(2.0), Value::Num(3.0)]).unwrap(),
            Value::Str(s) if &*s == "cde"
        ));
        assert!(matches!(
            call("contains", &[Value::str("GATTACA"), Value::str("TTA")]).unwrap(),
            Value::Bool(true)
        ));
        assert!(matches!(
            call("count_matches", &[Value::str("AAAA"), Value::str("AA")]).unwrap(),
            Value::Num(n) if n == 3.0
        ));
    }

    #[test]
    fn substr_and_slice_reject_bad_indices() {
        let s = Value::str("abcdef");
        let arr = Value::array(vec![Value::Num(1.0), Value::Num(2.0), Value::Num(3.0)]);
        // Negative start/length used to saturate to 0 silently; now an error.
        assert!(call("substr", &[s.clone(), Value::Num(-1.0), Value::Num(2.0)]).is_err());
        assert!(call("substr", &[s.clone(), Value::Num(0.0), Value::Num(-3.0)]).is_err());
        assert!(call("slice", &[arr.clone(), Value::Num(-1.0), Value::Num(2.0)]).is_err());
        assert!(call("slice", &[arr.clone(), Value::Num(0.0), Value::Num(-2.0)]).is_err());
        // NaN and infinity are rejected too.
        assert!(call(
            "substr",
            &[s.clone(), Value::Num(f64::NAN), Value::Num(1.0)]
        )
        .is_err());
        assert!(call(
            "slice",
            &[arr.clone(), Value::Num(f64::INFINITY), Value::Num(1.0)]
        )
        .is_err());
        // In-range fractional indices truncate toward zero.
        assert!(matches!(
            call("substr", &[s, Value::Num(1.5), Value::Num(2.9)]).unwrap(),
            Value::Str(out) if &*out == "bc"
        ));
        // Over-length requests still clamp at the end (half-open take).
        assert!(matches!(
            call("slice", &[arr, Value::Num(1.0), Value::Num(99.0)]).unwrap(),
            Value::Array(v) if v.len() == 2
        ));
    }

    #[test]
    fn bin_counts_are_validated() {
        let book = |nbins: f64| {
            call(
                "h1",
                &[
                    Value::str("/h"),
                    Value::Num(nbins),
                    Value::Num(0.0),
                    Value::Num(240.0),
                ],
            )
        };
        // Rejections: NaN, infinity, fractional, zero, negative, over-cap.
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            2.5,
            0.0,
            -8.0,
            1e12,
            (MAX_BINS + 1) as f64,
        ] {
            let err = book(bad).unwrap_err();
            assert!(
                matches!(err, ScriptError::Runtime { line: 1, .. }),
                "nbins={bad}: expected a line-1 runtime error, got {err:?}"
            );
        }
        // The boundary values are fine.
        assert!(book(1.0).is_ok());
        assert!(book(MAX_BINS as f64).is_ok());
        // h2 and prof validate through the same helper.
        assert!(call(
            "h2",
            &[
                Value::str("/h2"),
                Value::Num(10.0),
                Value::Num(0.0),
                Value::Num(1.0),
                Value::Num(f64::NAN),
                Value::Num(0.0),
                Value::Num(1.0),
            ],
        )
        .is_err());
        assert!(call(
            "prof",
            &[
                Value::str("/p"),
                Value::Num(0.0),
                Value::Num(0.0),
                Value::Num(1.0),
            ],
        )
        .is_err());
    }

    #[test]
    fn append_is_pure() {
        let a = Value::array(vec![Value::Num(1.0)]);
        let out = call("append", &[a.clone(), Value::Num(2.0)]).unwrap();
        let Value::Array(v) = out else { panic!() };
        assert_eq!(v.len(), 2);
        let Value::Array(orig) = a else { panic!() };
        assert_eq!(orig.len(), 1);
    }

    #[test]
    fn unknown_builtin_returns_none() {
        assert!(call_builtin("definitely_not_builtin", &[], 1, &mut NullHost).is_none());
    }

    #[test]
    fn array_aggregates() {
        let arr = Value::array(vec![Value::Num(3.0), Value::Num(1.0), Value::Num(2.0)]);
        assert!(
            matches!(call("sum", std::slice::from_ref(&arr)).unwrap(), Value::Num(n) if n == 6.0)
        );
        assert!(
            matches!(call("avg", std::slice::from_ref(&arr)).unwrap(), Value::Num(n) if n == 2.0)
        );
        assert!(
            matches!(call("min_of", std::slice::from_ref(&arr)).unwrap(), Value::Num(n) if n == 1.0)
        );
        assert!(
            matches!(call("max_of", std::slice::from_ref(&arr)).unwrap(), Value::Num(n) if n == 3.0)
        );
        let empty = Value::array(vec![]);
        assert!(
            matches!(call("sum", std::slice::from_ref(&empty)).unwrap(), Value::Num(n) if n == 0.0)
        );
        assert!(matches!(call("avg", &[empty]).unwrap(), Value::Null));
        // Non-numeric elements are an error.
        let bad = Value::array(vec![Value::str("x")]);
        assert!(call("sum", &[bad]).is_err());
    }

    #[test]
    fn sort_slice_reverse() {
        let arr = Value::array(vec![Value::Num(3.0), Value::Num(1.0), Value::Num(2.0)]);
        let Value::Array(sorted) = call("sort", std::slice::from_ref(&arr)).unwrap() else {
            panic!()
        };
        assert!(matches!(sorted[0], Value::Num(n) if n == 1.0));
        assert!(matches!(sorted[2], Value::Num(n) if n == 3.0));
        let Value::Array(sl) =
            call("slice", &[arr.clone(), Value::Num(1.0), Value::Num(5.0)]).unwrap()
        else {
            panic!()
        };
        assert_eq!(sl.len(), 2);
        let Value::Array(rev) = call("reverse", &[arr]).unwrap() else {
            panic!()
        };
        assert!(matches!(rev[0], Value::Num(n) if n == 2.0));
        assert!(
            matches!(call("reverse", &[Value::str("abc")]).unwrap(), Value::Str(s) if &*s == "cba")
        );
    }

    #[test]
    fn split_join_trim() {
        let Value::Array(parts) = call("split", &[Value::str("a,b,c"), Value::str(",")]).unwrap()
        else {
            panic!()
        };
        assert_eq!(parts.len(), 3);
        assert!(matches!(
            call("join", &[Value::Array(parts), Value::str("-")]).unwrap(),
            Value::Str(s) if &*s == "a-b-c"
        ));
        assert!(matches!(
            call("trim", &[Value::str("  x \n")]).unwrap(),
            Value::Str(s) if &*s == "x"
        ));
        assert!(call("split", &[Value::str("a"), Value::str("")]).is_err());
    }

    #[test]
    fn cloud_bindings_default_and_aida() {
        // NullHost rejects clouds via the default impl.
        assert!(call("cloud1", &[Value::str("/c")]).is_err());
        // AidaHost supports them.
        let mut host = crate::interp::AidaHost::new();
        call_builtin("cloud1", &[Value::str("/c")], 1, &mut host)
            .unwrap()
            .unwrap();
        call_builtin("cfill", &[Value::str("/c"), Value::Num(2.5)], 1, &mut host)
            .unwrap()
            .unwrap();
        assert_eq!(host.tree.get("/c").unwrap().entries(), 1);
        // Idempotent re-book, kind conflict caught.
        call_builtin("cloud1", &[Value::str("/c")], 1, &mut host)
            .unwrap()
            .unwrap();
        call_builtin(
            "h1",
            &[
                Value::str("/h"),
                Value::Num(5.0),
                Value::Num(0.0),
                Value::Num(1.0),
            ],
            1,
            &mut host,
        )
        .unwrap()
        .unwrap();
        assert!(
            call_builtin("cfill", &[Value::str("/h"), Value::Num(1.0)], 1, &mut host)
                .unwrap()
                .is_err()
        );
    }
}
