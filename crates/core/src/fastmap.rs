//! Seedless hashing for the maps an update touches on every op.
//!
//! `std`'s `HashMap` hashes with SipHash under a per-map random seed. The
//! two-level index looks up its block map on every insert and query, and
//! the cluster simulator looks up small integer keys (block addresses,
//! compact block and stripe keys, client ids) several times per simulated
//! op, where SipHash's rounds show in the host cost. [`FastMap`] swaps in
//! [`FastHasher`], a multiply-rotate hash in the style of FxHash: a few
//! instructions per word, **deterministic and seedless**, so every map
//! hashes a key the same way in every process, and two maps built by one
//! insert sequence iterate in one order.
//!
//! No result depends on a map's iteration order — under the seeded hasher
//! that order already changed from run to run, so every caller that
//! replays a map's contents sorts them first. The hash is not
//! collision-resistant against chosen keys; the keys here come from the
//! workload itself, never from outside input.
//!
//! One map keeps `std`'s hasher on purpose:
//! [`LogPoolSet::pool_for`](crate::layers::LogPoolSet::pool_for) routes
//! records to pools with a fixed-key `DefaultHasher`, and another hash
//! would route them, and so every result, differently.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`]. Build one with
/// `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, FastBuild>;

/// The [`std::hash::BuildHasher`] of [`FastMap`]: every hasher it builds
/// starts from the same zero state.
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// Multiply-rotate hasher: each word is added into the state, which is
/// then multiplied by an odd constant; [`Hasher::finish`] rotates the
/// result.
///
/// A product carries entropy only upward, so its low bits depend on the
/// low bits of the input alone. The table takes its bucket index from the
/// low bits of the hash, and compact block keys (a stripe shifted above a
/// small block index in the low byte) differ mostly above their low bits,
/// so the final rotation moves the well-mixed high half of the product
/// down to where it is used.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// An odd 64-bit constant with well-spread bits.
const MULTIPLIER: u64 = 0xf135_7aea_2e62_a9c5;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::StripeBlock;
    use std::hash::BuildHasher;

    #[test]
    fn seedless_across_maps() {
        let key = StripeBlock {
            stripe: 41,
            block_idx: 2,
        };
        let (a, b) = (FastBuild::default(), FastBuild::default());
        assert_eq!(a.hash_one(key), b.hash_one(key));
        assert_eq!(a.hash_one(41u64 << 8 | 2), b.hash_one(41u64 << 8 | 2));
    }

    /// Compact block keys differ mostly above their low byte (the block
    /// index sits there); their hashes must still spread over the low
    /// bits the table indexes by.
    #[test]
    fn block_keys_spread_over_low_bits() {
        let build = FastBuild::default();
        let mut buckets = std::collections::HashSet::new();
        for stripe in 0..1024u64 {
            buckets.insert(build.hash_one(stripe << 8) & 1023);
        }
        assert!(buckets.len() > 500, "{} of 1024 buckets", buckets.len());
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let hash = |bytes: &[u8]| {
            let mut h = FastHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_ne!(hash(b"123456789"), hash(b"123456780"));
        assert_ne!(hash(b"12345678"), hash(b"12345679"));
    }
}
