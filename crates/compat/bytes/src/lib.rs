//! Minimal, API-compatible subset of the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so the
//! workspace vendors the slice of `bytes` the codec and its callers use:
//! [`BytesMut`] (append + big-endian `put_*`), [`Bytes`] (consuming
//! big-endian `get_*`, `advance`, `slice`), and the [`Buf`]/[`BufMut`]
//! traits those methods live on — [`BufMut`] also for `Vec<u8>`, as
//! upstream implements it. Semantics (network byte order, panics on
//! underflow) match the real crate; zero-copy refcounting is replaced by
//! plain owned buffers, which is plenty for tests and simulation.

#![forbid(unsafe_code)]

use std::ops::{Bound, Deref, RangeBounds};

/// A growable byte buffer, `bytes::BytesMut`-shaped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes in the buffer.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes all bytes.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Appends `src`.
    #[inline]
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            off: 0,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> Self {
        Self { data: src.to_vec() }
    }
}

/// An immutable byte buffer with a consumed-prefix cursor,
/// `bytes::Bytes`-shaped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    off: usize,
}

impl Bytes {
    /// Wraps a static slice.
    pub fn from_static(src: &'static [u8]) -> Self {
        Self {
            data: src.to_vec(),
            off: 0,
        }
    }

    /// Remaining (unconsumed) length.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() - self.off
    }

    /// Whether all bytes were consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a new `Bytes` holding the given sub-range of the remaining
    /// bytes.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len(), "slice out of range");
        Bytes {
            data: self.as_slice()[start..end].to_vec(),
            off: 0,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.off..]
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Self { data, off: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(src: &[u8]) -> Self {
        Self {
            data: src.to_vec(),
            off: 0,
        }
    }
}

/// Read cursor over a byte source; all integer reads are big-endian, as in
/// the real `bytes` crate.
pub trait Buf {
    /// Remaining bytes.
    fn remaining(&self) -> usize;

    /// A view of the remaining bytes.
    fn chunk(&self) -> &[u8];

    /// Consumes `cnt` bytes.
    ///
    /// # Panics
    /// Panics if fewer than `cnt` bytes remain.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u16`.
    #[inline]
    fn get_u16(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_be_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Reads a big-endian `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Reads a big-endian `u64`.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        let c = self.chunk();
        let mut b = [0u8; 8];
        b.copy_from_slice(&c[..8]);
        self.advance(8);
        u64::from_be_bytes(b)
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end of Bytes");
        self.off += cnt;
    }
}

/// Append sink for bytes; all integer writes are big-endian.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_roundtrip() {
        let mut b = BytesMut::new();
        b.put_u8(0xAB);
        b.put_u16(0x1234);
        b.put_u32(0xDEAD_BEEF);
        assert_eq!(b.len(), 7);
        assert_eq!(b[0], 0xAB);
        let mut r = b.freeze();
        assert_eq!(r.get_u8(), 0xAB);
        assert_eq!(r.get_u16(), 0x1234);
        assert_eq!(r.get_u32(), 0xDEAD_BEEF);
        assert!(r.is_empty());
    }

    #[test]
    fn slice_and_advance() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mut s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        s.advance(1);
        assert_eq!(&s[..], &[3, 4]);
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[4]);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn advance_past_end_panics() {
        let mut b = Bytes::from_static(&[1, 2]);
        b.advance(3);
    }
}
