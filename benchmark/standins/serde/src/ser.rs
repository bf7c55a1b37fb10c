//! JSON writer and `Serialize` impls for std types.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::Write;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::Serialize;

/// Accumulates compact JSON text.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// A separator is due unless the container was just opened or a key was
    /// just written. Values never end in `{`, `[` or `:` (strings end in a
    /// quote), so the last byte decides.
    fn separate(&mut self) {
        if !matches!(self.buf.last(), None | Some(b'{' | b'[' | b':')) {
            self.buf.push(b',');
        }
    }

    pub fn begin_object(&mut self) {
        self.buf.push(b'{');
    }

    pub fn end_object(&mut self) {
        self.buf.push(b'}');
    }

    pub fn begin_array(&mut self) {
        self.buf.push(b'[');
    }

    pub fn end_array(&mut self) {
        self.buf.push(b']');
    }

    /// Object key from a name known to need no escaping (a Rust identifier).
    pub fn key(&mut self, name: &str) {
        self.separate();
        self.buf.push(b'"');
        self.buf.extend_from_slice(name.as_bytes());
        self.buf.extend_from_slice(b"\":");
    }

    pub fn field<T: Serialize + ?Sized>(&mut self, name: &str, value: &T) {
        self.key(name);
        value.serialize(self);
    }

    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.separate();
        value.serialize(self);
    }

    /// Object key from any serializable value: strings as they are, other
    /// scalars (integer keys) quoted, as serde_json does.
    pub fn map_key<T: Serialize + ?Sized>(&mut self, key: &T) {
        self.separate();
        let start = self.buf.len();
        key.serialize(self);
        if self.buf.get(start) != Some(&b'"') {
            self.buf.insert(start, b'"');
            self.buf.push(b'"');
        }
        self.buf.push(b':');
    }

    pub fn null(&mut self) {
        self.buf.extend_from_slice(b"null");
    }

    pub fn display(&mut self, v: impl std::fmt::Display) {
        write!(self.buf, "{v}").expect("writing to a Vec cannot fail");
    }

    pub fn string(&mut self, s: &str) {
        self.buf.push(b'"');
        let bytes = s.as_bytes();
        let mut from = 0;
        for (i, &b) in bytes.iter().enumerate() {
            let esc: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0x08 => b"\\b",
                0x0c => b"\\f",
                0..=0x1f => {
                    self.buf.extend_from_slice(&bytes[from..i]);
                    write!(self.buf, "\\u{b:04x}").expect("writing to a Vec cannot fail");
                    from = i + 1;
                    continue;
                }
                _ => continue,
            };
            self.buf.extend_from_slice(&bytes[from..i]);
            self.buf.extend_from_slice(esc);
            from = i + 1;
        }
        self.buf.extend_from_slice(&bytes[from..]);
        self.buf.push(b'"');
    }
}

macro_rules! display_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                out.display(self);
            }
        }
    )*};
}

display_impls!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, bool);

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                if self.is_finite() {
                    // `{:?}` prints the shortest digits that read back to
                    // the same float, always with a `.0` or an exponent.
                    write!(out.buf, "{self:?}").expect("writing to a Vec cannot fail");
                } else {
                    out.null();
                }
            }
        }
    )*};
}

float_impls!(f32, f64);

impl Serialize for str {
    fn serialize(&self, out: &mut Writer) {
        out.string(self);
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Writer) {
        out.string(self);
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Writer) {
        out.string(self.encode_utf8(&mut [0u8; 4]));
    }
}

impl Serialize for () {
    fn serialize(&self, out: &mut Writer) {
        out.null();
    }
}

macro_rules! deref_impls {
    ($($p:ident),*) => {$(
        impl<T: Serialize + ?Sized> Serialize for $p<T> {
            fn serialize(&self, out: &mut Writer) {
                (**self).serialize(out);
            }
        }
    )*};
}

deref_impls!(Box, Arc, Rc);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Writer) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Writer) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }
}

fn sequence<'a, T: Serialize + 'a>(out: &mut Writer, items: impl IntoIterator<Item = &'a T>) {
    out.begin_array();
    for item in items {
        out.element(item);
    }
    out.end_array();
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Writer) {
        sequence(out, self);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Writer) {
        sequence(out, self);
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Writer) {
        sequence(out, self);
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut Writer) {
        sequence(out, self);
    }
}

impl<T: Serialize, S> Serialize for HashSet<T, S> {
    fn serialize(&self, out: &mut Writer) {
        sequence(out, self);
    }
}

fn mapping<'a, K: Serialize + 'a, V: Serialize + 'a>(
    out: &mut Writer,
    entries: impl IntoIterator<Item = (&'a K, &'a V)>,
) {
    out.begin_object();
    for (k, v) in entries {
        out.map_key(k);
        v.serialize(out);
    }
    out.end_object();
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, out: &mut Writer) {
        mapping(out, self);
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn serialize(&self, out: &mut Writer) {
        mapping(out, self);
    }
}

macro_rules! tuple_impls {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn serialize(&self, out: &mut Writer) {
                out.begin_array();
                $(out.element(&self.$n);)+
                out.end_array();
            }
        }
    )*};
}

tuple_impls! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

impl Serialize for Duration {
    fn serialize(&self, out: &mut Writer) {
        out.begin_object();
        out.field("secs", &self.as_secs());
        out.field("nanos", &self.subsec_nanos());
        out.end_object();
    }
}

impl Serialize for SystemTime {
    fn serialize(&self, out: &mut Writer) {
        // A clock before 1970 is written as the epoch, where serde errors.
        let since = self.duration_since(UNIX_EPOCH).unwrap_or_default();
        out.begin_object();
        out.field("secs_since_epoch", &since.as_secs());
        out.field("nanos_since_epoch", &since.subsec_nanos());
        out.end_object();
    }
}
