//! Bulk slice kernels over GF(2^8).
//!
//! Erasure coding streams entire blocks (kilobytes to megabytes) through the
//! field with a fixed coefficient per (data block, parity block) pair. These
//! kernels are the hot path: `xor` runs at memory bandwidth by chunking
//! through `u64` words, and the multiply has two kernels, chosen at run
//! time on every call (the feature check is a cached load):
//!
//! * on `x86_64` with AVX2, a split-nibble kernel: `c·x = c·(x & 0x0f) ⊕
//!   c·(x & 0xf0)`, each half one lookup (`vpshufb`) in a 16-entry table of
//!   `c`'s products, 32 bytes at a time. The nibbles of a 32-byte chunk are
//!   split once and shared by every row. This module's `avx2` submodule
//!   holds the crate's only `unsafe`;
//! * everywhere else, a portable kernel on whole 16-byte lanes by bit
//!   decomposition, `c·x = ⊕_{j : bit j of x set} c·2^j`. Each of its
//!   eight steps takes the lane's top bits as a byte mask (a signed
//!   compare with zero), ANDs it into the precomputed product `c·2^j`,
//!   XORs that into the accumulator and doubles the lane — whole-lane
//!   operations that baseline SSE2 has, so safe Rust auto-vectorises them.
//!   It is also the reference the AVX2 kernel is tested against.
//!
//! Neither kernel's work on a source depends on `c`, so one pass over a
//! source serves up to four outputs ([`mul_acc_rows`]). Only the tail
//! shorter than a chunk (32 or 16 bytes) looks bytes up in a [`MUL`] row.
//!
//! Coefficients 0 and 1 never reach the multiply kernel: [`mul_acc`] and
//! [`mul_acc_rows`] skip a 0 row and send a 1 row to [`xor`], so a code
//! whose generator has ones (rscode normalises its first parity row and
//! first data column to ones) pays the multiply only where it needs it.

use std::array;

use crate::tables::MUL;

/// Bytes per kernel lane: one 128-bit vector register.
const LANE: usize = 16;

/// Outputs folded per pass over a source by [`mul_acc_rows`].
const MAX_ROWS: usize = 4;

/// `dst[i] ^= src[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn xor(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor: length mismatch");
    // Process 8-byte lanes via explicit little-endian round-trips; the
    // compiler turns this into wide vector XORs.
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let x = u64::from_le_bytes(dc.try_into().unwrap());
        let y = u64::from_le_bytes(sc.try_into().unwrap());
        dc.copy_from_slice(&(x ^ y).to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= *sb;
    }
}

/// `dst[i] ^= c * src[i]` for all `i` — the fused multiply-accumulate at the
/// heart of both full encoding (Eq. 1) and incremental parity updates
/// (Eq. 2 of the paper: `P^n = P^{n-1} + a * (D^n - D^{n-1})`).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
    assert_eq!(dst.len(), src.len(), "mul_acc: length mismatch");
    match c {
        0 => {}
        1 => xor(dst, src),
        _ => rows::<1>(&mut [dst], src, &[c]),
    }
}

/// `dsts[r][i] ^= cs[r] * src[i]` for every row `r` and all `i`: one source
/// folded into many outputs — a data delta into every parity (Eq. 2), or a
/// data block into every parity it feeds (Eq. 1). Each group of up to four
/// rows reads `src` once, so `m` parities cost `⌈m / 4⌉` passes over the
/// source instead of `m`. A row whose coefficient is 0 is skipped and one
/// whose coefficient is 1 is a plain [`xor`]; only the other rows are
/// grouped, in order, into the fused passes. Row `r` ends equal to a
/// separate `mul_acc(dsts[r], src, cs[r])`.
///
/// # Panics
/// Panics if `dsts` and `cs` have different lengths, or any row's length
/// differs from `src`'s.
pub fn mul_acc_rows(dsts: &mut [&mut [u8]], src: &[u8], cs: &[u8]) {
    assert_eq!(
        dsts.len(),
        cs.len(),
        "mul_acc_rows: row/coefficient mismatch"
    );
    for d in dsts.iter() {
        assert_eq!(d.len(), src.len(), "mul_acc_rows: length mismatch");
    }
    // The rows that need the multiply, gathered on the stack a group at a
    // time.
    let mut group: [&mut [u8]; MAX_ROWS] = Default::default();
    let mut group_cs = [0u8; MAX_ROWS];
    let mut n = 0;
    for (d, &c) in dsts.iter_mut().zip(cs) {
        match c {
            0 => {}
            1 => xor(d, src),
            _ => {
                group[n] = d;
                group_cs[n] = c;
                n += 1;
                if n == MAX_ROWS {
                    rows::<MAX_ROWS>(&mut group, src, &group_cs);
                    n = 0;
                }
            }
        }
    }
    let (ds, cs) = (&mut group[..n], &group_cs[..n]);
    match n {
        0 => {}
        1 => rows::<1>(ds, src, cs),
        2 => rows::<2>(ds, src, cs),
        _ => rows::<3>(ds, src, cs),
    }
}

/// The multiply kernel: `dsts[r] ^= cs[r] · src` for `M` rows (lengths
/// already checked by the caller). On `x86_64` with AVX2 it is the
/// split-nibble kernel of [`avx2`]; on any other CPU, [`rows_portable`].
fn rows<const M: usize>(dsts: &mut [&mut [u8]], src: &[u8], cs: &[u8]) {
    let dsts: &mut [&mut [u8]; M] = dsts.try_into().expect("M rows");
    let cs: &[u8; M] = cs.try_into().expect("M coefficients");
    #[cfg(target_arch = "x86_64")]
    if avx2::rows(dsts, src, cs) {
        return;
    }
    rows_portable(dsts, src, cs);
}

/// The portable multiply kernel, by bit decomposition over 16-byte lanes:
/// safe Rust that baseline SSE2 auto-vectorises, and the reference the
/// AVX2 kernel is tested against.
fn rows_portable<const M: usize>(dsts: &mut [&mut [u8]; M], src: &[u8], cs: &[u8; M]) {
    // basis[r][t] = cs[r]·2^(7-t), broadcast across a lane: what bit 7 - t
    // of a source byte contributes to row r.
    let basis: [[[u8; LANE]; 8]; M] =
        array::from_fn(|r| array::from_fn(|t| [MUL[cs[r] as usize][0x80 >> t]; LANE]));
    let (src_body, src_tail) = src.split_at(src.len() - src.len() % LANE);
    // Re-slicing every row to exactly the body lets the compiler drop the
    // per-lane bounds checks.
    let mut split = dsts.each_mut().map(|d| d.split_at_mut(src_body.len()));
    for (i, lane) in src_body.chunks_exact(LANE).enumerate() {
        let mut x: [u8; LANE] = lane.try_into().unwrap();
        let mut acc = [[0u8; LANE]; M];
        for t in 0..8 {
            // 0xff where the lane byte's top bit (bit 7 - t of the source
            // byte) is set, then shift the next bit up.
            let mask: [u8; LANE] = array::from_fn(|l| ((x[l] as i8) >> 7) as u8);
            for (a, b) in acc.iter_mut().zip(&basis) {
                for l in 0..LANE {
                    a[l] ^= mask[l] & b[t][l];
                }
            }
            x = array::from_fn(|l| x[l] << 1);
        }
        for ((d, _), a) in split.iter_mut().zip(&acc) {
            let d: &mut [u8; LANE] = (&mut d[i * LANE..(i + 1) * LANE]).try_into().unwrap();
            for l in 0..LANE {
                d[l] ^= a[l];
            }
        }
    }
    for ((_, d), &c) in split.iter_mut().zip(cs) {
        mul_acc_table(d, src_tail, c);
    }
}

/// `dst[i] ^= MUL[c][src[i]]`, a byte at a time: the kernels' tails.
fn mul_acc_table(dst: &mut [u8], src: &[u8], c: u8) {
    let row = &MUL[c as usize];
    for (d, &s) in dst.iter_mut().zip(src) {
        *d ^= row[s as usize];
    }
}

/// The split-nibble kernel: `c·x = c·(x & 0x0f) ⊕ c·(x & 0xf0)`, each half
/// one 16-entry table lookup, 32 bytes at a time by `vpshufb`.
///
/// The crate's only `unsafe`: the AVX2 kernel may run only where the CPU
/// feature was detected, and its unaligned loads and stores take raw
/// pointers, each into an array of exactly one 32-byte chunk.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_set1_epi8, _mm256_shuffle_epi8, _mm256_srli_epi64, _mm256_storeu_si256,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    use super::mul_acc_table;
    use crate::tables::MUL;

    /// Bytes per kernel chunk: one 256-bit vector register.
    const CHUNK: usize = 32;

    /// `dsts[r] ^= cs[r] · src` for `M` rows, if this CPU has AVX2; returns
    /// whether it ran. Every row must be as long as `src`.
    pub(super) fn rows<const M: usize>(
        dsts: &mut [&mut [u8]; M],
        src: &[u8],
        cs: &[u8; M],
    ) -> bool {
        if !is_x86_feature_detected!("avx2") {
            return false;
        }
        // SAFETY: AVX2 was detected just above, the one feature `rows_avx2`
        // enables.
        unsafe { rows_avx2(dsts, src, cs) };
        true
    }

    /// Loads one chunk.
    #[target_feature(enable = "avx2")]
    fn load(chunk: &[u8; CHUNK]) -> __m256i {
        // SAFETY: the pointer reads exactly the 32 bytes of `chunk`; the
        // load is unaligned, and AVX2 is enabled on this function.
        unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) }
    }

    /// `MUL[c][0..16]` in both 128-bit halves, since vpshufb looks up
    /// within a half.
    #[target_feature(enable = "avx2")]
    fn table(c: u8) -> __m256i {
        let row: &[u8; 16] = MUL[c as usize][..16].try_into().unwrap();
        // SAFETY: the pointer reads exactly the 16 bytes of `row`; the load
        // is unaligned, and AVX2 is enabled on this function.
        _mm256_broadcastsi128_si256(unsafe { _mm_loadu_si128(row.as_ptr().cast()) })
    }

    /// The kernel itself; [`rows`] calls it only once AVX2 is detected.
    #[target_feature(enable = "avx2")]
    fn rows_avx2<const M: usize>(dsts: &mut [&mut [u8]; M], src: &[u8], cs: &[u8; M]) {
        // Row r's products of the low and the high nibble: c·i and
        // c·(i << 4) = (c·16)·i, both one contiguous 16-entry row of MUL.
        let mut lo = [_mm256_set1_epi8(0); M];
        let mut hi = [_mm256_set1_epi8(0); M];
        for r in 0..M {
            lo[r] = table(cs[r]);
            hi[r] = table(MUL[cs[r] as usize][16]);
        }
        let nibble = _mm256_set1_epi8(0x0f);
        let (src_body, src_tail) = src.split_at(src.len() - src.len() % CHUNK);
        let mut split = dsts.each_mut().map(|d| d.split_at_mut(src_body.len()));
        let mut chunks = split.each_mut().map(|(d, _)| d.chunks_exact_mut(CHUNK));
        for chunk in src_body.chunks_exact(CHUNK) {
            let x = load(chunk.try_into().unwrap());
            // The nibbles, shared by all M rows; the shift crosses bytes
            // within each 64-bit word, and the mask drops what crossed.
            let x_lo = _mm256_and_si256(x, nibble);
            let x_hi = _mm256_and_si256(_mm256_srli_epi64::<4>(x), nibble);
            for (d, (&l, &h)) in chunks.iter_mut().zip(lo.iter().zip(&hi)) {
                let d: &mut [u8; CHUNK] = d.next().unwrap().try_into().unwrap();
                let p =
                    _mm256_xor_si256(_mm256_shuffle_epi8(l, x_lo), _mm256_shuffle_epi8(h, x_hi));
                let acc = _mm256_xor_si256(load(d), p);
                // SAFETY: the pointer writes exactly the 32 bytes of `d`;
                // the store is unaligned, and AVX2 is enabled on this
                // function.
                unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), acc) };
            }
        }
        for ((_, d), &c) in split.iter_mut().zip(cs) {
            mul_acc_table(d, src_tail, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf;

    /// The byte-at-a-time table walk the kernel replaced: the reference
    /// every kernel output is checked against.
    fn ref_mul_acc(dst: &mut [u8], src: &[u8], c: u8) {
        let row = &MUL[c as usize];
        for (d, &s) in dst.iter_mut().zip(src) {
            *d ^= row[s as usize];
        }
    }

    /// 4 096 + 7 bytes (+ 31 for sliding) in which every position of a
    /// 16-byte lane sees all 256 byte values: `src[16q + p] = 17q + p`, and
    /// 17 is odd. A 32-byte chunk holds two lanes, so between offsets 0
    /// and 16 every chunk position sees all 256 values too.
    fn every_value_at_every_position(salt: usize) -> Vec<u8> {
        (0..4096 + 7 + 31)
            .map(|i| (i / LANE * 17 + i % LANE + salt) as u8)
            .collect()
    }

    /// One kernel, called as `mul_acc` calls it: one row, lengths equal.
    type Kernel = fn(&mut [&mut [u8]; 1], &[u8], &[u8; 1]);

    /// Every coefficient × every byte value at every chunk position, every
    /// length 0..=72 and one long odd length, at every offset 0..32.
    fn exhaustive_matches_table_walk(kernel: Kernel) {
        let src = every_value_at_every_position(0);
        let init = every_value_at_every_position(0x5a);
        let lens = (0..=72).chain([4096 + 7]);
        for c in 0..=255u8 {
            for len in lens.clone() {
                for off in 0..32 {
                    let s = &src[off..off + len];
                    let mut fast = init[off..off + len].to_vec();
                    let mut slow = fast.clone();
                    kernel(&mut [&mut fast], s, &[c]);
                    ref_mul_acc(&mut slow, s, c);
                    assert_eq!(fast, slow, "c = {c}, len {len}, offset {off}");
                }
            }
        }
    }

    #[test]
    fn xor_various_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 63, 64, 100, 4096] {
            let a: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i * 31 + 5) as u8).collect();
            let mut d = a.clone();
            xor(&mut d, &b);
            for i in 0..len {
                assert_eq!(d[i], a[i] ^ b[i], "len {len}, index {i}");
            }
        }
    }

    #[test]
    fn xor_is_involutive() {
        let a: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..1000).map(|i| (i % 83) as u8).collect();
        let mut d = a.clone();
        xor(&mut d, &b);
        xor(&mut d, &b);
        assert_eq!(d, a);
    }

    #[test]
    fn mul_matches_scalar() {
        // Into a zeroed accumulator, `mul_acc` is a plain multiply.
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 0x1d, 0x80, 0xff] {
            let mut dst = vec![0u8; 256];
            mul_acc(&mut dst, &src, c);
            for (i, &d) in dst.iter().enumerate() {
                assert_eq!(Gf(d), Gf(c) * Gf(src[i]));
            }
        }
    }

    #[test]
    fn mul_acc_matches_reference() {
        let src: Vec<u8> = (0..512).map(|i| (i * 17 + 3) as u8).collect();
        for c in [0u8, 1, 2, 7, 0x1d, 0xfe] {
            let mut fast: Vec<u8> = (0..512).map(|i| (i * 5) as u8).collect();
            let mut slow = fast.clone();
            mul_acc(&mut fast, &src, c);
            ref_mul_acc(&mut slow, &src, c);
            assert_eq!(fast, slow, "c = {c}");
        }
    }

    #[test]
    fn mul_acc_exhaustive_matches_table_walk() {
        // The kernel `mul_acc` dispatches to on this CPU, whichever it is.
        exhaustive_matches_table_walk(|d, s, c| mul_acc(d[0], s, c[0]));
    }

    #[test]
    fn portable_kernel_exhaustive_matches_table_walk() {
        exhaustive_matches_table_walk(rows_portable::<1>);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_exhaustive_matches_table_walk() {
        if !is_x86_feature_detected!("avx2") {
            eprintln!("this CPU lacks AVX2: the split-nibble kernel is not run");
            return;
        }
        exhaustive_matches_table_walk(|d, s, c| assert!(avx2::rows(d, s, c)));
    }

    #[test]
    fn mul_acc_rows_equals_one_mul_acc_per_row() {
        // 1..=9 rows crosses the group-of-4 boundary twice; the coefficients
        // include 0, 1 and repeats.
        let cs = [0x1d, 0, 1, 0x1d, 0xff, 2, 1, 0x80, 0];
        let src = every_value_at_every_position(3);
        for n in 1..=cs.len() {
            for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 4096 + 7] {
                let s = &src[..len];
                let init: Vec<Vec<u8>> = (0..n)
                    .map(|r| (0..len).map(|i| (i * 13 + r * 101) as u8).collect())
                    .collect();
                let mut fused = init.clone();
                let mut refs: Vec<&mut [u8]> = fused.iter_mut().map(|v| v.as_mut_slice()).collect();
                mul_acc_rows(&mut refs, s, &cs[..n]);
                for (r, (got, mut want)) in fused.iter().zip(init).enumerate() {
                    let mut table = want.clone();
                    mul_acc(&mut want, s, cs[r]);
                    ref_mul_acc(&mut table, s, cs[r]);
                    assert_eq!(*got, want, "{n} rows, len {len}, row {r}");
                    assert_eq!(*got, table, "{n} rows, len {len}, row {r}");
                }
            }
        }
    }

    #[test]
    fn scale_then_inverse_restores() {
        let orig: Vec<u8> = (0..300).map(|i| (i * 11) as u8).collect();
        for c in 1..=255u8 {
            let mut scaled = vec![0u8; orig.len()];
            mul_acc(&mut scaled, &orig, c);
            let mut back = vec![0u8; orig.len()];
            mul_acc(&mut back, &scaled, Gf(c).inverse().unwrap().0);
            assert_eq!(back, orig, "c = {c}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut d = [0u8; 3];
        xor(&mut d, &[0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "mul_acc: length mismatch")]
    fn mul_acc_length_mismatch_panics() {
        let mut d = [0u8; 17];
        mul_acc(&mut d, &[0u8; 16], 7);
    }

    #[test]
    #[should_panic(expected = "mul_acc_rows: length mismatch")]
    fn mul_acc_rows_length_mismatch_panics() {
        let (mut a, mut b) = ([0u8; 16], [0u8; 15]);
        mul_acc_rows(&mut [&mut a, &mut b], &[0u8; 16], &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "mul_acc_rows: row/coefficient mismatch")]
    fn mul_acc_rows_coefficient_count_mismatch_panics() {
        let mut a = [0u8; 16];
        mul_acc_rows(&mut [&mut a], &[0u8; 16], &[2, 3]);
    }

    #[test]
    fn distributivity_over_slices() {
        // c*(a ^ b) == c*a ^ c*b, elementwise over slices.
        let a: Vec<u8> = (0..256).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..256).map(|i| (i * 3 + 1) as u8).collect();
        for c in [2u8, 0x1d, 0x7f] {
            let mut sum = a.clone();
            xor(&mut sum, &b);
            let mut lhs = vec![0u8; 256];
            mul_acc(&mut lhs, &sum, c);

            let mut rhs = vec![0u8; 256];
            mul_acc(&mut rhs, &a, c);
            mul_acc(&mut rhs, &b, c);

            assert_eq!(lhs, rhs, "c = {c}");
        }
    }
}
