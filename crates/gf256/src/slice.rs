//! Bulk slice kernels over GF(2^8).
//!
//! Erasure coding streams entire blocks (kilobytes to megabytes) through the
//! field with a fixed coefficient per (data block, parity block) pair. These
//! kernels are the hot path: `xor` runs at memory bandwidth by chunking
//! through `u64` words, and the one multiply kernel works on whole 16-byte
//! lanes by bit decomposition, `c·x = ⊕_{j : bit j of x set} c·2^j`. Each of
//! its eight steps takes the lane's top bits as a byte mask (a signed
//! compare with zero), ANDs it into the precomputed product `c·2^j`, XORs
//! that into the accumulator and doubles the lane — whole-lane operations
//! that baseline SSE2 has, so safe Rust auto-vectorises them with no
//! runtime feature detection. The masks do not depend on `c`, so one pass
//! over a source serves up to four outputs ([`mul_acc_rows`]). Only the
//! < 16-byte tail looks bytes up in a [`MUL`] row.
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
/// already checked by the caller), by bit decomposition over 16-byte lanes.
fn rows<const M: usize>(dsts: &mut [&mut [u8]], src: &[u8], cs: &[u8]) {
    let dsts: &mut [&mut [u8]; M] = dsts.try_into().expect("M rows");
    let cs: &[u8; M] = cs.try_into().expect("M coefficients");
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
        let row = &MUL[c as usize];
        for (d, &s) in d.iter_mut().zip(src_tail) {
            *d ^= row[s as usize];
        }
    }
}

/// Computes `out[i] = a[i] ^ b[i]` — the "data delta" `D^n - D^{n-1}` of the
/// paper's Eq. (2) — without mutating either input.
///
/// # Panics
/// Panics if any slice length differs.
pub fn delta(out: &mut [u8], a: &[u8], b: &[u8]) {
    assert_eq!(out.len(), a.len(), "delta: length mismatch");
    assert_eq!(a.len(), b.len(), "delta: length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x ^ y;
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

    /// 4 096 + 7 bytes (+ 15 for sliding) in which every lane position sees
    /// all 256 byte values: `src[16q + p] = 17q + p`, and 17 is odd.
    fn every_value_at_every_position(salt: usize) -> Vec<u8> {
        (0..4096 + 7 + 15)
            .map(|i| (i / LANE * 17 + i % LANE + salt) as u8)
            .collect()
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
        // Every coefficient × every byte value at every lane position, every
        // length 0..=40 and one long odd length, at every alignment 0..16.
        let src = every_value_at_every_position(0);
        let init = every_value_at_every_position(0x5a);
        let lens = (0..=40).chain([4096 + 7]);
        for c in 0..=255u8 {
            for len in lens.clone() {
                for off in 0..LANE {
                    let s = &src[off..off + len];
                    let mut fast = init[off..off + len].to_vec();
                    let mut slow = fast.clone();
                    mul_acc(&mut fast, s, c);
                    ref_mul_acc(&mut slow, s, c);
                    assert_eq!(fast, slow, "c = {c}, len {len}, offset {off}");
                }
            }
        }
    }

    #[test]
    fn mul_acc_rows_equals_one_mul_acc_per_row() {
        // 1..=9 rows crosses the group-of-4 boundary twice; the coefficients
        // include 0, 1 and repeats.
        let cs = [0x1d, 0, 1, 0x1d, 0xff, 2, 1, 0x80, 0];
        let src = every_value_at_every_position(3);
        for n in 1..=cs.len() {
            for len in [0usize, 1, 15, 16, 17, 100, 4096 + 7] {
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
    fn delta_is_xor_of_inputs() {
        let a = [1u8, 2, 3, 4];
        let b = [5u8, 6, 7, 0];
        let mut out = [0u8; 4];
        delta(&mut out, &a, &b);
        assert_eq!(out, [4, 4, 4, 4]);
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
