//! Offline stand-in for `serde_json`: the entry points the ipa crates
//! call, over the JSON-only serde stand-in next door.

use std::io;

use serde::de::Parser;
use serde::ser::Writer;
use serde::{Deserialize, Serialize};

pub use serde::de::Error;

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Writer::new();
    value.serialize(&mut out);
    Ok(out.into_bytes())
}

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    // The writer only ever appends `str` pieces and ASCII punctuation.
    Ok(String::from_utf8(to_vec(value)?).expect("writer produced UTF-8"))
}

pub fn to_writer<W: io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer
        .write_all(&to_vec(value)?)
        .map_err(|e| Error::new(format!("write failed: {e}"), 0))
}

/// Two-space indentation, one member per line, `"key": value`.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let compact = to_string(value)?;
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = compact.chars().peekable();
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    };
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                // Empty containers stay on one line.
                if matches!(chars.peek(), Some('}' | ']')) {
                    out.push(chars.next().expect("peeked"));
                } else {
                    depth += 1;
                    newline(&mut out, depth);
                }
            }
            '}' | ']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(c),
        }
    }
    Ok(out)
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut p = Parser::new(text);
    let value = T::deserialize(&mut p)?;
    p.end()?;
    Ok(value)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let text =
        std::str::from_utf8(bytes).map_err(|e| Error::new("invalid UTF-8", e.valid_up_to()))?;
    from_str(text)
}
