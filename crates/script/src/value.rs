//! Runtime values.

use std::fmt;
use std::sync::Arc;

use ipa_dataset::{AnyRecord, FieldValue, RecordBatch, RecordHandle};

/// A cheap, shared handle to one dataset record: either a record with its
/// own allocation, or one record of a shared batch. Cloning the handle
/// bumps a reference count, never copies the record data — this is what
/// lets the engine hand its [`RecordBatch`] parts straight to scripts
/// without a per-record deep copy.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordRef {
    /// A record with its own allocation.
    One(Arc<AnyRecord>),
    /// One record of a shared record batch.
    Batch(RecordHandle),
}

impl RecordRef {
    /// Wrap a single shared record.
    pub fn one(record: Arc<AnyRecord>) -> RecordRef {
        RecordRef::One(record)
    }

    /// Point at `batch[index]` without copying.
    ///
    /// # Panics
    /// Panics when `index` is out of bounds.
    pub fn batch(batch: &RecordBatch, index: usize) -> RecordRef {
        RecordRef::Batch(batch.handle(index))
    }

    /// Borrow the underlying record.
    pub fn get(&self) -> &AnyRecord {
        match self {
            RecordRef::One(r) => r,
            RecordRef::Batch(r) => r,
        }
    }
}

impl std::ops::Deref for RecordRef {
    type Target = AnyRecord;

    fn deref(&self) -> &AnyRecord {
        self.get()
    }
}

/// An IPAScript runtime value.
///
/// The derived `PartialEq` is structural (used by tests); the language's
/// `==` operator goes through [`Value::equals`], which compares records by
/// identity instead.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (also what missing record fields read as).
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit float (the only numeric type).
    Num(f64),
    /// String (shared: cloning bumps a reference count).
    Str(Arc<str>),
    /// Array with value semantics: clones share the elements until one of
    /// them is written through `name[i] = v`, which copies first
    /// (`Arc::make_mut`).
    Array(Arc<Vec<Value>>),
    /// A dataset record (shared, immutable).
    Record(RecordRef),
}

impl Value {
    /// A string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// An array value holding `items`.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Arc::new(items))
    }

    /// Truthiness: null/false/0/""/[] are false, records are true.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Array(a) => !a.is_empty(),
            Value::Record(_) => true,
        }
    }

    /// Numeric view (bools widen; strings do NOT coerce implicitly).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Num(_) => "num",
            Value::Str(_) => "str",
            Value::Array(_) => "array",
            Value::Record(_) => "record",
        }
    }

    /// Convert a dataset field value.
    pub fn from_field(f: FieldValue) -> Value {
        match f {
            FieldValue::Num(x) => Value::Num(x),
            FieldValue::Int(i) => Value::Num(i as f64),
            FieldValue::Bool(b) => Value::Bool(b),
            FieldValue::Str(s) => Value::Str(s),
            FieldValue::Missing => Value::Null,
        }
    }

    /// Structural equality (`==` in the language). Records compare by
    /// identity; null equals only null.
    pub fn equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equals(y))
            }
            (Value::Record(a), Value::Record(b)) => std::ptr::eq(a.get(), b.get()),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Array(a) => {
                write!(f, "[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Record(r) => write!(f, "<{} record #{}>", r.kind(), r.id()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Num(0.0).truthy());
        assert!(Value::Num(0.5).truthy());
        assert!(!Value::str("").truthy());
        assert!(Value::str("x").truthy());
        assert!(!Value::array(vec![]).truthy());
        assert!(Value::array(vec![Value::Null]).truthy());
    }

    #[test]
    fn equality() {
        assert!(Value::Null.equals(&Value::Null));
        assert!(!Value::Null.equals(&Value::Num(0.0)));
        assert!(Value::Num(2.0).equals(&Value::Num(2.0)));
        assert!(Value::array(vec![Value::Num(1.0)]).equals(&Value::array(vec![Value::Num(1.0)])));
        assert!(!Value::array(vec![Value::Num(1.0)]).equals(&Value::array(vec![])));
        assert!(!Value::str("1").equals(&Value::Num(1.0)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Value::Num(1.5)), "1.5");
        assert_eq!(
            format!("{}", Value::array(vec![Value::Num(1.0), Value::str("a")])),
            "[1, a]"
        );
    }

    #[test]
    fn value_is_three_words() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn from_field() {
        assert!(matches!(
            Value::from_field(FieldValue::Missing),
            Value::Null
        ));
        assert!(matches!(
            Value::from_field(FieldValue::Int(3)),
            Value::Num(n) if n == 3.0
        ));
    }
}
