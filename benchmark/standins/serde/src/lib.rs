//! Offline stand-in for `serde`, hard-wired to JSON.
//!
//! The published crate separates data structures from formats through the
//! `Serializer`/`Deserializer` visitor model. The ipa crates only ever use
//! JSON, through derived impls, so this stand-in skips the model:
//! [`Serialize`] writes JSON text into a [`ser::Writer`] and
//! [`Deserialize`] reads it from a [`de::Parser`]. The text is what
//! `serde_json` produces for the same types (externally tagged enums,
//! newtype structs as their content, integer map keys as strings,
//! non-finite floats as `null`, shortest round-trip float digits), so
//! journals and wire messages keep their shape.
//!
//! Supported container and field attributes: `rename_all = "lowercase"`,
//! `rename_all = "snake_case"`, `default`, `default = "path"`.

pub mod de;
pub mod ser;

pub use serde_derive::{Deserialize, Serialize};

/// A value that can write itself as JSON.
pub trait Serialize {
    fn serialize(&self, out: &mut ser::Writer);
}

/// A value that can be read back from JSON.
pub trait Deserialize: Sized {
    fn deserialize(p: &mut de::Parser<'_>) -> Result<Self, de::Error>;
}
