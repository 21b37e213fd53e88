//! Property-based tests: field axioms and kernel equivalences (the matrix
//! properties are unit tests beside the test-only `Matrix::mul`).

use gf256::{slice, Gf};
use proptest::prelude::*;

fn gf() -> impl Strategy<Value = Gf> {
    any::<u8>().prop_map(Gf)
}

proptest! {
    #[test]
    fn addition_commutes(a in gf(), b in gf()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn addition_associates(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn additive_identity_and_inverse(a in gf()) {
        prop_assert_eq!(a + Gf::ZERO, a);
        prop_assert_eq!(a + a, Gf::ZERO); // every element is its own negation
        prop_assert_eq!(-a, a);
    }

    #[test]
    fn multiplication_commutes(a in gf(), b in gf()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn multiplication_associates(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn multiplicative_identity(a in gf()) {
        prop_assert_eq!(a * Gf::ONE, a);
    }

    #[test]
    fn distributivity(a in gf(), b in gf(), c in gf()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn inverse_cancels(a in gf()) {
        if let Some(inv) = a.inverse() {
            prop_assert_eq!(a * inv, Gf::ONE);
        } else {
            prop_assert_eq!(a, Gf::ZERO);
        }
    }

    #[test]
    fn sub_is_add(a in gf(), b in gf()) {
        prop_assert_eq!(a - b, a + b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slice_mul_acc_matches_scalar(
        src in proptest::collection::vec(any::<u8>(), 0..2048),
        init in any::<u8>(),
        c in any::<u8>(),
    ) {
        let mut dst = vec![init; src.len()];
        let expect: Vec<u8> = dst
            .iter()
            .zip(&src)
            .map(|(&d, &s)| (Gf(d) + Gf(c) * Gf(s)).0)
            .collect();
        slice::mul_acc(&mut dst, &src, c);
        prop_assert_eq!(dst, expect);
    }

    #[test]
    fn slice_mul_acc_rows_matches_scalar(
        src in proptest::collection::vec(any::<u8>(), 0..2048),
        init in any::<u8>(),
        cs in proptest::collection::vec(any::<u8>(), 1..10),
    ) {
        let mut rows: Vec<Vec<u8>> = (0..cs.len())
            .map(|r| vec![init.wrapping_add(r as u8); src.len()])
            .collect();
        let expect: Vec<Vec<u8>> = rows
            .iter()
            .zip(&cs)
            .map(|(row, &c)| {
                row.iter()
                    .zip(&src)
                    .map(|(&d, &s)| (Gf(d) + Gf(c) * Gf(s)).0)
                    .collect()
            })
            .collect();
        let mut refs: Vec<&mut [u8]> = rows.iter_mut().map(|r| r.as_mut_slice()).collect();
        slice::mul_acc_rows(&mut refs, &src, &cs);
        prop_assert_eq!(rows, expect);
    }

    #[test]
    fn slice_xor_matches_scalar(
        a in proptest::collection::vec(any::<u8>(), 0..2048),
        seed in any::<u8>(),
    ) {
        let b: Vec<u8> = a.iter().map(|&x| x.wrapping_mul(31).wrapping_add(seed)).collect();
        let mut dst = a.clone();
        slice::xor(&mut dst, &b);
        for i in 0..a.len() {
            prop_assert_eq!(dst[i], a[i] ^ b[i]);
        }
    }
}
