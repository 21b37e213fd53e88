//! Log-record payloads: real bytes for the engine, ghost lengths for the
//! cluster simulator.

use bytes::Bytes;
use gf256::slice;

/// What a log record carries.
///
/// The index merges records with a few structural operations (slice,
/// concatenate, XOR, and the in-place overwrite and XOR of a sub-range); both
/// a real byte buffer and a length-only stand-in satisfy them, so the whole
/// log machinery is generic and the simulator never pays for data it does
/// not need. The in-place operations never change a view someone else holds.
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

    /// Overwrites `[at, at + src.len())` with `src`, in place
    /// (same-position merge of newer data).
    ///
    /// # Panics
    /// Panics if `src` does not fit at `at`.
    fn overwrite_at(&mut self, at: u32, src: &Self);

    /// XORs `src` into `[at, at + src.len())`, in place (same-position delta
    /// merge inside a range, Eq. 3).
    ///
    /// # Panics
    /// Panics if `src` does not fit at `at`.
    fn xor_at(&mut self, at: u32, src: &Self);
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

    /// Applies `edit` to the bytes as a `Vec`: the buffer itself when this
    /// payload is its only owner, a copy of the viewed bytes otherwise, so
    /// a view held elsewhere never changes.
    fn edit(&mut self, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut buf = Vec::from(std::mem::take(&mut self.0));
        edit(&mut buf);
        self.0 = Bytes::from(buf);
    }

    /// The byte window `[at, at + len)` of `buf`, checked to fit.
    fn window(buf: &mut [u8], at: u32, len: u32) -> &mut [u8] {
        let end = at as usize + len as usize;
        assert!(end <= buf.len(), "write out of range");
        &mut buf[at as usize..end]
    }
}

impl Payload for Data {
    fn len(&self) -> u32 {
        self.0.len() as u32
    }

    fn slice(&self, from: u32, to: u32) -> Self {
        Data(self.0.slice(from as usize..to as usize))
    }

    fn concat(mut self, other: Self) -> Self {
        if self.0.is_empty() {
            return other;
        }
        if other.0.is_empty() {
            return self;
        }
        // Growing a uniquely owned buffer is amortised O(other).
        self.edit(|buf| buf.extend_from_slice(&other.0));
        self
    }

    fn xor_with(&mut self, other: &Self) {
        assert_eq!(self.0.len(), other.0.len(), "xor_with: length mismatch");
        self.xor_at(0, other);
    }

    fn overwrite_at(&mut self, at: u32, src: &Self) {
        self.edit(|buf| Data::window(buf, at, src.len()).copy_from_slice(&src.0));
    }

    fn xor_at(&mut self, at: u32, src: &Self) {
        self.edit(|buf| slice::xor(Data::window(buf, at, src.len()), &src.0));
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

    fn overwrite_at(&mut self, at: u32, src: &Self) {
        assert!(
            at as u64 + src.0 as u64 <= self.0 as u64,
            "write out of range"
        );
    }

    fn xor_at(&mut self, at: u32, src: &Self) {
        self.overwrite_at(at, src);
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
    fn in_place_writes_leave_held_views_alone() {
        let mut d = Data::copy_from(&[1, 2, 3, 4, 5]);
        let held = d.slice(1, 4);
        d.overwrite_at(1, &Data::copy_from(&[9, 9]));
        assert_eq!(d.as_slice(), &[1, 9, 9, 4, 5]);
        d.xor_at(3, &Data::copy_from(&[0xff, 0x0f]));
        assert_eq!(d.as_slice(), &[1, 9, 9, 0xfb, 0x0a]);
        assert_eq!(held.as_slice(), &[2, 3, 4]);
        let grown = held.clone().concat(Data::copy_from(&[6]));
        assert_eq!(grown.as_slice(), &[2, 3, 4, 6]);
        assert_eq!(held.as_slice(), &[2, 3, 4]);
    }

    #[test]
    fn a_unique_buffer_is_edited_in_place() {
        let mut d = Data::from_vec(vec![0; 8]);
        let storage = d.as_slice().as_ptr();
        d.overwrite_at(2, &Data::copy_from(&[7; 4]));
        d.xor_with(&Data::from_vec(vec![1; 8]));
        assert_eq!(d.as_slice().as_ptr(), storage);
        assert_eq!(d.as_slice(), &[1, 1, 6, 6, 6, 6, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "write out of range")]
    fn data_overwrite_past_the_end_panics() {
        let mut d = Data::copy_from(&[1, 2, 3]);
        d.overwrite_at(2, &Data::copy_from(&[1, 2]));
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
    fn ghost_in_place_writes_check_bounds() {
        let mut g = Ghost(10);
        g.overwrite_at(6, &Ghost(4));
        g.xor_at(0, &Ghost(10));
        assert_eq!(g, Ghost(10));
    }

    #[test]
    #[should_panic(expected = "write out of range")]
    fn ghost_write_past_the_end_panics() {
        Ghost(10).xor_at(u32::MAX, &Ghost(2));
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
