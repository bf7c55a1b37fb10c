//! Offline stand-in for `bytes`: `BytesMut` as a `Vec<u8>`, `BufMut`
//! writers on it, and `Buf` readers on `&[u8]`, little-endian only — the
//! subset the dataset codec uses. As in `bytes`, a `get_*` past the end of
//! the slice panics; the codec checks `remaining()` first.

use std::ops::{Deref, DerefMut};

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut(Vec::with_capacity(capacity))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn clear(&mut self) {
        self.0.clear()
    }

    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional)
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src)
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.0.clone()
    }

    pub fn freeze(self) -> Vec<u8> {
        self.0
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.0
    }
}

macro_rules! put_le {
    ($($name:ident: $t:ty),*) => {$(
        fn $name(&mut self, v: $t) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    put_le!(put_u16_le: u16, put_u32_le: u32, put_u64_le: u64, put_i32_le: i32,
            put_i64_le: i64, put_f32_le: f32, put_f64_le: f64);
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

macro_rules! get_le {
    ($($name:ident: $t:ty),*) => {$(
        fn $name(&mut self) -> $t {
            let mut raw = [0u8; std::mem::size_of::<$t>()];
            self.copy_to_slice(&mut raw);
            <$t>::from_le_bytes(raw)
        }
    )*};
}

pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut raw = [0u8; 1];
        self.copy_to_slice(&mut raw);
        raw[0]
    }

    get_le!(get_u16_le: u16, get_u32_le: u32, get_u64_le: u64, get_i32_le: i32,
            get_i64_le: i64, get_f32_le: f32, get_f64_le: f64);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}
