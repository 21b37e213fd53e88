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

/// Multiply-fold hasher: each word is added into the state, which is
/// then multiplied by an odd constant; [`Hasher::finish`] folds the high
/// half of the state into the low half, multiplies once more and rotates.
///
/// A product carries entropy only upward, so its low bits depend on the
/// low bits of the input alone, and its top bits never come down. The
/// table takes its bucket index from the low bits of the hash and its
/// control byte from the top seven, while keys differ in their high bits
/// (a packed block word holds the volume at 48..64) as often as in their
/// low ones. The fold brings every input bit into the low half, the second
/// product spreads it upward again, and the rotation moves the well-mixed
/// high half down to the bucket index.
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
        let h = self.hash;
        (h ^ h >> 32).wrapping_mul(MULTIPLIER).rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::StripeBlock;
    use std::collections::HashSet;
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
        let mut buckets = HashSet::new();
        for stripe in 0..1024u64 {
            buckets.insert(build.hash_one(stripe << 8) & 1023);
        }
        assert!(buckets.len() > 500, "{} of 1024 buckets", buckets.len());
    }

    /// Distinct bucket indices (`hash & 1023`) and control bytes
    /// (`hash >> 57`) the packed block words of `addrs` reach.
    fn spread(addrs: impl Iterator<Item = (u64, u64, u64)>) -> (usize, usize) {
        let build = FastBuild::default();
        let (mut buckets, mut controls) = (HashSet::new(), HashSet::new());
        for (volume, stripe, index) in addrs {
            let word = (volume & 0xffff) << 48 ^ (volume >> 16) << 28 ^ stripe << 8 ^ index;
            let hash = build.hash_one(word);
            buckets.insert(hash & 1023);
            controls.insert(hash >> 57);
        }
        (buckets.len(), controls.len())
    }

    /// Packed block words (`ecfs`'s `BlockAddr` hash: the volume at
    /// 48..64, the stripe at 8..48, the index at 0..8) differ in their top
    /// bits from volume to volume; those bits must reach both the bucket
    /// index and the control byte.
    #[test]
    fn packed_block_words_reach_buckets_and_control_bytes() {
        let cells = (0..64).flat_map(|v| (0..2).flat_map(move |s| (0..9).map(move |i| (v, s, i))));
        let (buckets, controls) = spread(cells);
        assert!(buckets >= 512, "{buckets} of 1024 buckets");
        assert!(controls >= 64, "{controls} of 128 control bytes");

        let (buckets, controls) = spread((0..1000).map(|v| (v, 0, 0)));
        assert!(buckets >= 512, "{buckets} of 1024 buckets");
        assert!(controls >= 64, "{controls} of 128 control bytes");
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
