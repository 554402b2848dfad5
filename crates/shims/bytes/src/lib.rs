//! In-repo stand-in for the `bytes` crate, for fully-offline builds.
//!
//! Provides the small slice of the real API the workspace uses: a
//! cheaply-cloneable immutable [`Bytes`] buffer (reference-counted, so BAL
//! readers on many threads share one allocation), the [`Buf`] cursor trait
//! implemented for `&[u8]`, and the [`BufMut`] writer trait implemented for
//! `Vec<u8>`.

#![forbid(unsafe_code)]

use std::sync::Arc;

/// A cheaply-cloneable, immutable, shareable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wrap a static byte slice.
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes { data: data.into() }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Copy out a sub-range as a new buffer. (The real crate shares the
    /// allocation; a copy has identical semantics for immutable data.)
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.data.len(),
        };
        Bytes {
            data: self.data[lo..hi].into(),
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { data: v.into() }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes { data: v.into() }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.data[..] == other.data[..]
    }
}

impl Eq for Bytes {}

/// A cursor over a contiguous byte source.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;

    /// Advance the cursor by `n` bytes.
    fn advance(&mut self, n: usize);

    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Consume one byte. Panics when empty (mirroring the real crate).
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    /// Consume `dst.len()` bytes into `dst`. Panics on underrun.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underrun");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }
}

/// A growable byte sink.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_share_and_compare() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(&a[1..], &[2, 3]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_ne!(a, Bytes::from_static(b"xyz"));
    }

    #[test]
    fn buf_cursor_over_slice() {
        let data = [1u8, 2, 3, 4];
        let mut buf = &data[..];
        assert_eq!(buf.remaining(), 4);
        assert_eq!(buf.get_u8(), 1);
        let mut two = [0u8; 2];
        buf.copy_to_slice(&mut two);
        assert_eq!(two, [2, 3]);
        assert!(buf.has_remaining());
        assert_eq!(buf.get_u8(), 4);
        assert!(!buf.has_remaining());
    }

    #[test]
    fn bufmut_into_vec() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(7);
        out.put_u64_le(0x0102);
        assert_eq!(out.len(), 9);
        assert_eq!(out[0], 7);
        assert_eq!(out[1], 2);
        assert_eq!(out[2], 1);
    }
}
