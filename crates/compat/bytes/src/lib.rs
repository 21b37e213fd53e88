//! Offline stand-in for the `bytes` crate: an `Arc<Vec<u8>>`-backed
//! immutable buffer with O(1) `clone`/`slice`/`From<Vec<u8>>`, convertible
//! back into a `Vec<u8>` without copying when it is the storage's only view.

#![forbid(unsafe_code)]

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable immutable byte buffer (a view into shared storage).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copies a slice into a new buffer (one copy).
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        Bytes::from(src.to_vec())
    }

    /// O(1) sub-view of `range`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let start = match range.start_bound() {
            std::ops::Bound::Included(&s) => s,
            std::ops::Bound::Excluded(&s) => s + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&e) => e + 1,
            std::ops::Bound::Excluded(&e) => e,
            std::ops::Bound::Unbounded => len,
        };
        assert!(start <= end && end <= len, "slice out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

/// Takes ownership of the vector's allocation: O(1), no copy.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

/// Takes the allocation back when this view is the storage's only owner
/// (trimmed to the viewed bytes in place); copies the viewed bytes otherwise,
/// so no other view ever changes.
impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        match Arc::try_unwrap(b.data) {
            Ok(mut v) => {
                v.truncate(b.end);
                v.drain(..b.start);
                v
            }
            Err(shared) => shared[b.start..b.end].to_vec(),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({:?})", &self[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_shares_storage() {
        let b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        let ss = s.slice(1..2);
        assert_eq!(&ss[..], &[3]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::copy_from_slice(&[1]);
        let _ = b.slice(0..2);
    }

    #[test]
    fn from_vec_keeps_the_allocation() {
        let v = vec![4u8, 5, 6];
        let before = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), before);
        assert_eq!(&b[..], &[4, 5, 6]);
    }

    #[test]
    fn copy_from_slice_does_not_alias() {
        let src = [7u8, 8, 9];
        let b = Bytes::copy_from_slice(&src);
        assert_ne!(b.as_ptr(), src.as_ptr());
        assert_eq!(&b[..], &src);
    }

    #[test]
    fn slices_and_clones_share_storage() {
        let b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        assert_eq!(b.slice(2..).as_ptr(), b[2..].as_ptr());
        assert_eq!(b.slice(1..4).slice(1..).as_ptr(), b[2..].as_ptr());
        assert_eq!(b.clone().as_ptr(), b.as_ptr());
    }

    #[test]
    fn into_vec_takes_a_unique_full_view_back() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let before = b.as_ptr();
        let v = Vec::from(b);
        assert_eq!(v.as_ptr(), before);
        assert_eq!(v, [1, 2, 3]);
    }

    #[test]
    fn into_vec_copies_a_shared_view() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let held = b.clone();
        let mut v = Vec::from(b);
        assert_ne!(v.as_ptr(), held.as_ptr());
        v[0] = 9;
        assert_eq!(&held[..], &[1, 2, 3]);
        assert_eq!(Vec::from(held.slice(1..)), [2, 3]);
    }

    #[test]
    fn into_vec_returns_exactly_the_viewed_bytes() {
        // A view of `[1, 2, 3, 4, 5]` that owns its storage alone.
        fn unique(start: usize, end: usize) -> Bytes {
            Bytes::from(vec![1u8, 2, 3, 4, 5]).slice(start..end)
        }
        for (start, end, want) in [
            (1, 5, &[2u8, 3, 4, 5][..]),
            (0, 2, &[1, 2]),
            (1, 4, &[2, 3, 4]),
            (2, 2, &[]),
        ] {
            let view = unique(start, end);
            let storage = view.as_ptr().wrapping_sub(start);
            let v = Vec::from(view);
            assert_eq!(v, want, "{start}..{end}");
            assert_eq!(v.as_ptr(), storage, "{start}..{end} kept the allocation");
            let whole = Bytes::from(vec![1u8, 2, 3, 4, 5]);
            assert_eq!(
                Vec::from(whole.slice(start..end)),
                want,
                "shared {start}..{end}"
            );
            assert_eq!(&whole[..], &[1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn equality_ignores_view_offsets() {
        let a = Bytes::copy_from_slice(&[1, 2, 3]).slice(1..3);
        let b = Bytes::copy_from_slice(&[2, 3]);
        assert_eq!(a, b);
    }
}
