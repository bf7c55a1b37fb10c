//! JSON parser and `Deserialize` impls for std types.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::Deserialize;

/// Containers may nest this deep; deeper input is refused so that text
/// from the wire cannot overflow the stack.
const MAX_DEPTH: usize = 128;

/// What went wrong and at which byte of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
    offset: usize,
}

impl Error {
    pub fn new(message: impl Into<String>, offset: usize) -> Self {
        Error {
            message: message.into(),
            offset,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// A cursor over JSON text.
pub struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    pub fn new(src: &'a str) -> Self {
        Parser {
            src,
            pos: 0,
            depth: 0,
        }
    }

    pub fn error(&self, message: impl Into<String>) -> Error {
        Error::new(message, self.pos)
    }

    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    /// Next byte after white space, not consumed.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if matches!(b, b' ' | b'\n' | b'\r' | b'\t') {
                self.pos += 1;
            } else {
                return Some(b);
            }
        }
        None
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    fn literal(&mut self, word: &str) -> bool {
        self.peek();
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    /// Consume `null` if it is next.
    pub fn null(&mut self) -> bool {
        self.literal("null")
    }

    /// Only white space may remain.
    pub fn end(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// Enter an object (`{`) or array (`[`).
    pub fn open(&mut self, byte: u8) -> Result<(), Error> {
        self.expect(byte)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        Ok(())
    }

    /// Leave an object (`}`) or array (`]`).
    pub fn close(&mut self, byte: u8) -> Result<(), Error> {
        self.expect(byte)?;
        self.depth -= 1;
        Ok(())
    }

    /// Step to the next member of the open container: consumes the
    /// separating comma and returns true, or consumes `close` and returns
    /// false.
    pub fn seq_next(&mut self, first: &mut bool, close: u8) -> Result<bool, Error> {
        if self.peek() == Some(close) {
            self.close(close)?;
            return Ok(false);
        }
        if !*first {
            self.expect(b',')?;
        }
        *first = false;
        Ok(true)
    }

    pub fn boolean(&mut self) -> Result<bool, Error> {
        if self.literal("true") {
            Ok(true)
        } else if self.literal("false") {
            Ok(false)
        } else {
            Err(self.error("expected a boolean"))
        }
    }

    /// The text of a number.
    pub fn number(&mut self) -> Result<&'a str, Error> {
        self.peek();
        let start = self.pos;
        let bytes = self.bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        Ok(&self.src[start..self.pos])
    }

    pub fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let bytes = self.bytes();
        let start = self.pos;
        // Quotes and backslashes are ASCII, so stopping on them never
        // splits a UTF-8 sequence.
        loop {
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    let s = &self.src[start..self.pos];
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => break,
                Some(_) => self.pos += 1,
            }
        }
        let mut out = String::from(&self.src[start..self.pos]);
        loop {
            let run = self.pos;
            while !matches!(bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let Some(&b) = self.bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        out.push(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    if !self.bytes()[self.pos..].starts_with(b"\\u") {
                        return Err(self.error("lone surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.error("lone surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))?
            }
            _ => return Err(self.error("invalid escape")),
        });
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated unicode escape"))?;
        let v =
            u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid unicode escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// Read an object key and its colon; the key's position in `names`, or
    /// `None` for a key that is not listed.
    pub fn key_index(&mut self, names: &[&str]) -> Result<Option<usize>, Error> {
        let key = self.string()?;
        self.expect(b':')?;
        Ok(names.iter().position(|n| *n == key))
    }

    /// Read a string naming one of `names`.
    pub fn variant_index(&mut self, names: &[&str]) -> Result<usize, Error> {
        let at = self.pos;
        let name = self.string()?;
        names
            .iter()
            .position(|n| *n == name)
            .ok_or_else(|| Error::new(format!("unknown variant `{name}`"), at))
    }

    /// Skip one value of any kind.
    pub fn skip(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'"') => self.string().map(drop),
            Some(b'{') => {
                self.open(b'{')?;
                let mut first = true;
                while self.seq_next(&mut first, b'}')? {
                    self.string()?;
                    self.expect(b':')?;
                    self.skip()?;
                }
                Ok(())
            }
            Some(b'[') => {
                self.open(b'[')?;
                let mut first = true;
                while self.seq_next(&mut first, b']')? {
                    self.skip()?;
                }
                Ok(())
            }
            Some(b't' | b'f') => self.boolean().map(drop),
            Some(b'n') if self.null() => Ok(()),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.error("expected a value")),
        }
    }
}

/// Value for a field the object did not carry: what `null` reads as (so an
/// `Option` is `None`), or an error naming the field.
pub fn missing_field<T: Deserialize>(name: &str) -> Result<T, Error> {
    T::deserialize(&mut Parser::new("null"))
        .map_err(|e| Error::new(format!("missing field `{name}`"), e.offset))
}

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                let at = p.pos;
                let text = p.number()?;
                text.parse().map_err(|_| {
                    Error::new(format!("`{text}` is not a {}", stringify!($t)), at)
                })
            }
        }
    )*};
}

int_impls!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, f32, f64);

impl Deserialize for bool {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.boolean()
    }
}

impl Deserialize for String {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.string().map(Cow::into_owned)
    }
}

impl Deserialize for char {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let s = p.string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(p.error("expected a single character")),
        }
    }
}

impl Deserialize for () {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.null() {
            Ok(())
        } else {
            Err(p.error("expected null"))
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        if p.null() {
            Ok(None)
        } else {
            T::deserialize(p).map(Some)
        }
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        T::deserialize(p).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        T::deserialize(p).map(Arc::new)
    }
}

impl<T: Deserialize> Deserialize for Rc<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        T::deserialize(p).map(Rc::new)
    }
}

impl Deserialize for Arc<str> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.string().map(|s| Arc::from(&*s))
    }
}

impl Deserialize for Box<str> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        p.string().map(|s| Box::from(&*s))
    }
}

/// Feed each element of the array at the cursor to `push`.
fn sequence<T: Deserialize>(p: &mut Parser<'_>, mut push: impl FnMut(T)) -> Result<(), Error> {
    p.open(b'[')?;
    let mut first = true;
    while p.seq_next(&mut first, b']')? {
        push(T::deserialize(p)?);
    }
    Ok(())
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = Vec::new();
        sequence(p, |v| out.push(v))?;
        Ok(out)
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = BTreeSet::new();
        sequence(p, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

impl<T: Deserialize + Eq + Hash, S: BuildHasher + Default> Deserialize for HashSet<T, S> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = HashSet::default();
        sequence(p, |v| {
            out.insert(v);
        })?;
        Ok(out)
    }
}

/// A map key is always a JSON string. A key type that reads a string gets
/// it as written; any other (an integer) gets the string's content.
fn map_key<K: Deserialize>(p: &mut Parser<'_>) -> Result<K, Error> {
    let start = p.pos;
    let content = p.string()?;
    let quoted_end = p.pos;
    p.expect(b':')?;
    let mut quoted = Parser::new(&p.src[..quoted_end]);
    quoted.pos = start;
    K::deserialize(&mut quoted).or_else(|_| {
        let mut bare = Parser::new(&content);
        let key = K::deserialize(&mut bare)?;
        bare.end()?;
        Ok(key)
    })
}

fn mapping<K: Deserialize, V: Deserialize>(
    p: &mut Parser<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    p.open(b'{')?;
    let mut first = true;
    while p.seq_next(&mut first, b'}')? {
        let key = map_key(p)?;
        insert(key, V::deserialize(p)?);
    }
    Ok(())
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = BTreeMap::new();
        mapping(p, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize, S: BuildHasher + Default> Deserialize
    for HashMap<K, V, S>
{
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let mut out = HashMap::default();
        mapping(p, |k, v| {
            out.insert(k, v);
        })?;
        Ok(out)
    }
}

/// Read the next element of a fixed-length array.
pub fn tuple_element<T: Deserialize>(p: &mut Parser<'_>, first: &mut bool) -> Result<T, Error> {
    if !p.seq_next(first, b']')? {
        return Err(p.error("array too short"));
    }
    T::deserialize(p)
}

/// The fixed-length array must end here.
pub fn tuple_end(p: &mut Parser<'_>, first: &mut bool) -> Result<(), Error> {
    if p.seq_next(first, b']')? {
        return Err(p.error("array too long"));
    }
    Ok(())
}

macro_rules! tuple_impls {
    ($(($($t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
                p.open(b'[')?;
                let mut first = true;
                let value = ($(tuple_element::<$t>(p, &mut first)?,)+);
                tuple_end(p, &mut first)?;
                Ok(value)
            }
        }
    )*};
}

tuple_impls! {
    (A)
    (A, B)
    (A, B, C)
    (A, B, C, D)
    (A, B, C, D, E)
}

/// Read an object of exactly two unsigned fields, in any order.
fn two_fields(p: &mut Parser<'_>, names: [&str; 2]) -> Result<(u64, u32), Error> {
    p.open(b'{')?;
    let (mut a, mut b) = (None, None);
    let mut first = true;
    while p.seq_next(&mut first, b'}')? {
        match p.key_index(&names)? {
            Some(0) => a = Some(u64::deserialize(p)?),
            Some(1) => b = Some(u32::deserialize(p)?),
            _ => p.skip()?,
        }
    }
    match (a, b) {
        // `Duration::new` panics when the nanoseconds carry past `u64::MAX`.
        (Some(a), Some(b)) if b < 1_000_000_000 => Ok((a, b)),
        _ => Err(p.error(format!("expected `{}` and `{}`", names[0], names[1]))),
    }
}

impl Deserialize for Duration {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let (secs, nanos) = two_fields(p, ["secs", "nanos"])?;
        Ok(Duration::new(secs, nanos))
    }
}

impl Deserialize for SystemTime {
    fn deserialize(p: &mut Parser<'_>) -> Result<Self, Error> {
        let (secs, nanos) = two_fields(p, ["secs_since_epoch", "nanos_since_epoch"])?;
        UNIX_EPOCH
            .checked_add(Duration::new(secs, nanos))
            .ok_or_else(|| p.error("time out of range"))
    }
}
