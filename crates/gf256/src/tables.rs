//! Compile-time generated lookup tables for GF(2^8) under polynomial `0x11d`.
//!
//! All tables are produced by `const fn`s and materialised as statics, so
//! there is no runtime initialisation, no locking, and no allocation. The
//! generator element is `2`, which is primitive for `0x11d`: its powers
//! enumerate all 255 non-zero field elements.

/// The reducing polynomial `x^8 + x^4 + x^3 + x^2 + 1`, written with the
/// implicit `x^8` bit: `0b1_0001_1101`.
pub const POLY: u16 = 0x11d;

/// The generator element whose powers enumerate the multiplicative group.
pub const GENERATOR: u8 = 2;

const fn build_exp_log() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0usize;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Mirror the cycle so `exp[log a + log b]` needs no `% 255`.
    let mut j = 255usize;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const EXP_LOG: ([u8; 512], [u8; 256]) = build_exp_log();

/// `EXP[i] = g^i` for `i in 0..510` (the second half mirrors the first so
/// that `EXP[log(a) + log(b)]` is a valid multiply without a modulo).
pub static EXP: [u8; 512] = EXP_LOG.0;

/// `LOG[a] = log_g(a)` for non-zero `a`; `LOG[0]` is unused and zero.
pub static LOG: [u8; 256] = EXP_LOG.1;

const fn build_mul_table() -> [[u8; 256]; 256] {
    let (exp, log) = build_exp_log();
    let mut t = [[0u8; 256]; 256];
    let mut a = 1usize;
    while a < 256 {
        let la = log[a] as usize;
        let mut b = 1usize;
        while b < 256 {
            t[a][b] = exp[la + log[b] as usize];
            b += 1;
        }
        a += 1;
    }
    t
}

/// Full 64 KiB multiplication table: `MUL[a][b] = a * b` in the field.
///
/// Row `MUL[c]` is the multiply-by-`c` map: 256 bytes, i.e. four 64-byte
/// cache lines. The slice kernel reads it only to build its per-coefficient
/// lane constants and to finish the < 16-byte tail of a slice.
pub static MUL: [[u8; 256]; 256] = build_mul_table();

const fn build_inv_table() -> [u8; 256] {
    let (exp, log) = build_exp_log();
    let mut t = [0u8; 256];
    let mut a = 1usize;
    while a < 256 {
        t[a] = exp[255 - log[a] as usize];
        a += 1;
    }
    t
}

/// Multiplicative inverses: `INV[a] = a^-1` for non-zero `a`; `INV[0] = 0`.
pub static INV: [u8; 256] = build_inv_table();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_has_full_order() {
        // Powers of the generator must visit every non-zero element once.
        let mut seen = [false; 256];
        for (i, &e) in EXP.iter().enumerate().take(255) {
            let v = e as usize;
            assert_ne!(v, 0, "generator power hit zero at exponent {i}");
            assert!(!seen[v], "generator power repeated at exponent {i}");
            seen[v] = true;
        }
        assert!(seen[1..].iter().all(|&s| s));
    }

    #[test]
    fn exp_table_mirrors() {
        for i in 0..255 {
            assert_eq!(EXP[i], EXP[i + 255]);
        }
    }

    #[test]
    fn log_exp_roundtrip() {
        for a in 1..=255u8 {
            assert_eq!(EXP[LOG[a as usize] as usize], a);
        }
    }

    #[test]
    fn mul_table_matches_log_exp() {
        for a in 1..=255u16 {
            for b in 1..=255u16 {
                let expect = EXP[LOG[a as usize] as usize + LOG[b as usize] as usize];
                assert_eq!(MUL[a as usize][b as usize], expect);
            }
        }
    }

    #[test]
    fn mul_by_zero_is_zero() {
        for (a, row) in MUL.iter().enumerate() {
            assert_eq!(row[0], 0);
            assert_eq!(MUL[0][a], 0);
        }
    }

    #[test]
    fn inverses_multiply_to_one() {
        for a in 1..=255usize {
            assert_eq!(MUL[a][INV[a] as usize], 1, "a = {a}");
        }
        assert_eq!(INV[0], 0);
    }
}
