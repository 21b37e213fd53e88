//! Log-record payloads: real bytes for the engine, ghost lengths for the
//! cluster simulator.

use bytes::{Bytes, BytesMut};
use gf256::slice;

/// What a log record carries.
///
/// The index only needs four structural operations to merge records; both a
/// real byte buffer and a length-only stand-in satisfy them, so the whole
/// log machinery is generic and the simulator never pays for data it does
/// not need.
pub trait Payload: Clone + std::fmt::Debug {
    /// Length in bytes.
    fn len(&self) -> u32;

    /// Whether the payload is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sub-range `[from, to)`.
    ///
    /// # Panics
    /// Panics if `from > to` or `to > len`.
    fn slice(&self, from: u32, to: u32) -> Self;

    /// Concatenation `self ++ other` (adjacent-range merge).
    fn concat(self, other: Self) -> Self;

    /// XORs `other` into `self` (same-position delta merge, Eq. 3).
    ///
    /// # Panics
    /// Panics if lengths differ.
    fn xor_with(&mut self, other: &Self);
}

/// A real byte payload backed by [`Bytes`] (O(1) slicing, cheap clones).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Data(pub Bytes);

impl Data {
    /// Copies a slice into a payload.
    pub fn copy_from(bytes: &[u8]) -> Data {
        Data(Bytes::copy_from_slice(bytes))
    }

    /// Takes ownership of `bytes` as a payload, without copying.
    pub fn from_vec(bytes: Vec<u8>) -> Data {
        Data(Bytes::from(bytes))
    }

    /// A zero-filled payload of `len` bytes.
    pub fn zeroed(len: u32) -> Data {
        Data::from_vec(vec![0u8; len as usize])
    }

    /// Borrow of the bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl Payload for Data {
    fn len(&self) -> u32 {
        self.0.len() as u32
    }

    fn slice(&self, from: u32, to: u32) -> Self {
        Data(self.0.slice(from as usize..to as usize))
    }

    fn concat(self, other: Self) -> Self {
        if self.0.is_empty() {
            return other;
        }
        if other.0.is_empty() {
            return self;
        }
        let mut buf = BytesMut::with_capacity(self.0.len() + other.0.len());
        buf.extend_from_slice(&self.0);
        buf.extend_from_slice(&other.0);
        Data(buf.freeze())
    }

    fn xor_with(&mut self, other: &Self) {
        assert_eq!(self.0.len(), other.0.len(), "xor_with: length mismatch");
        let mut buf = self.0.to_vec();
        slice::xor(&mut buf, &other.0);
        *self = Data::from_vec(buf);
    }
}

/// A length-only payload: the simulator's stand-in for real data.
///
/// All structural operations are O(1); XOR merging is a no-op on content
/// (the *length* bookkeeping is what the simulator measures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ghost(pub u32);

impl Payload for Ghost {
    fn len(&self) -> u32 {
        self.0
    }

    fn slice(&self, from: u32, to: u32) -> Self {
        assert!(from <= to && to <= self.0, "slice out of range");
        Ghost(to - from)
    }

    fn concat(self, other: Self) -> Self {
        Ghost(self.0 + other.0)
    }

    fn xor_with(&mut self, other: &Self) {
        assert_eq!(self.0, other.0, "xor_with: length mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_roundtrip() {
        let d = Data::copy_from(&[1, 2, 3, 4, 5]);
        assert_eq!(Data::from_vec(vec![1, 2, 3, 4, 5]), d);
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        assert_eq!(d.slice(1, 4).as_slice(), &[2, 3, 4]);
        let e = d.clone().concat(Data::copy_from(&[9]));
        assert_eq!(e.as_slice(), &[1, 2, 3, 4, 5, 9]);
    }

    #[test]
    fn data_xor() {
        let mut a = Data::copy_from(&[0xff, 0x00, 0xaa]);
        a.xor_with(&Data::copy_from(&[0x0f, 0xf0, 0xaa]));
        assert_eq!(a.as_slice(), &[0xf0, 0xf0, 0x00]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn data_xor_length_mismatch_panics() {
        let mut a = Data::copy_from(&[1]);
        a.xor_with(&Data::copy_from(&[1, 2]));
    }

    #[test]
    fn ghost_mirrors_data_structure() {
        let g = Ghost(100);
        assert_eq!(g.slice(10, 30), Ghost(20));
        assert_eq!(g.concat(Ghost(28)), Ghost(128));
        let mut h = Ghost(4);
        h.xor_with(&Ghost(4));
        assert_eq!(h, Ghost(4));
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn ghost_slice_bounds() {
        let _ = Ghost(10).slice(5, 20);
    }

    #[test]
    fn zeroed_and_empty() {
        assert_eq!(Data::zeroed(3).as_slice(), &[0, 0, 0]);
        assert!(Data::copy_from(&[]).is_empty());
        assert!(Ghost(0).is_empty());
    }
}
