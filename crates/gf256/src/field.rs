//! Scalar GF(2^8) element type and operations.

// Field arithmetic legitimately implements `+`/`-` as XOR and `/` via `*`;
// clippy's suspicious-arithmetic lints assume integer semantics.
#![allow(clippy::suspicious_arithmetic_impl)]
#![allow(clippy::suspicious_op_assign_impl)]

use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::tables::{INV, MUL};

/// An element of GF(2^8) under the reducing polynomial `0x11d`.
///
/// Addition and subtraction are both XOR (the field has characteristic 2),
/// multiplication goes through the compile-time log/exp tables, and division
/// multiplies by the precomputed inverse. All operations are branch-light
/// and constant-time with respect to the *values* involved (table lookups
/// aside), and none can panic except [`Div`] by zero.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
#[repr(transparent)]
pub struct Gf(pub u8);

impl Gf {
    /// The additive identity.
    pub const ZERO: Gf = Gf(0);
    /// The multiplicative identity.
    pub const ONE: Gf = Gf(1);
    /// The field's primitive generator element.
    pub const GENERATOR: Gf = Gf(crate::tables::GENERATOR);

    /// Raw byte value of this element.
    #[inline]
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Whether this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplicative inverse.
    ///
    /// Returns `None` for zero, which has no inverse.
    #[inline]
    pub fn inverse(self) -> Option<Gf> {
        if self.is_zero() {
            None
        } else {
            Some(Gf(INV[self.0 as usize]))
        }
    }
}

impl fmt::Debug for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf(0x{:02x})", self.0)
    }
}

impl fmt::Display for Gf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

impl From<u8> for Gf {
    #[inline]
    fn from(v: u8) -> Self {
        Gf(v)
    }
}

impl From<Gf> for u8 {
    #[inline]
    fn from(v: Gf) -> Self {
        v.0
    }
}

impl Add for Gf {
    type Output = Gf;
    #[inline]
    fn add(self, rhs: Gf) -> Gf {
        Gf(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf {
    #[inline]
    fn add_assign(&mut self, rhs: Gf) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf {
    type Output = Gf;
    #[inline]
    fn sub(self, rhs: Gf) -> Gf {
        // Characteristic 2: subtraction and addition coincide.
        Gf(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf {
    #[inline]
    fn sub_assign(&mut self, rhs: Gf) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf {
    type Output = Gf;
    #[inline]
    fn neg(self) -> Gf {
        self
    }
}

impl Mul for Gf {
    type Output = Gf;
    #[inline]
    fn mul(self, rhs: Gf) -> Gf {
        Gf(MUL[self.0 as usize][rhs.0 as usize])
    }
}

impl MulAssign for Gf {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf) {
        *self = *self * rhs;
    }
}

impl Div for Gf {
    type Output = Gf;

    /// Field division.
    ///
    /// # Panics
    /// Panics when dividing by zero, mirroring integer division semantics.
    #[inline]
    fn div(self, rhs: Gf) -> Gf {
        let inv = rhs.inverse().expect("division by zero in GF(2^8)");
        self * inv
    }
}

impl DivAssign for Gf {
    #[inline]
    fn div_assign(&mut self, rhs: Gf) {
        *self = *self / rhs;
    }
}

impl Sum for Gf {
    fn sum<I: Iterator<Item = Gf>>(iter: I) -> Gf {
        iter.fold(Gf::ZERO, |acc, x| acc + x)
    }
}

impl Product for Gf {
    fn product<I: Iterator<Item = Gf>>(iter: I) -> Gf {
        iter.fold(Gf::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor() {
        assert_eq!(Gf(0b1010) + Gf(0b0110), Gf(0b1100));
        assert_eq!(Gf(0xff) + Gf(0xff), Gf::ZERO);
    }

    #[test]
    fn known_products() {
        // Hand-checked products under 0x11d.
        assert_eq!(Gf(2) * Gf(2), Gf(4));
        assert_eq!(Gf(0x80) * Gf(2), Gf(0x1d));
        assert_eq!(Gf(0x53) * Gf(0xca), Gf(0x8f));
        assert_eq!(Gf(0x53) * Gf(0x8c), Gf(1));
    }

    #[test]
    fn division_roundtrip() {
        for a in 0..=255u8 {
            for b in 1..=255u8 {
                let q = Gf(a) / Gf(b);
                assert_eq!(q * Gf(b), Gf(a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf(1) / Gf(0);
    }

    #[test]
    fn sum_and_product_iterators() {
        let xs = [Gf(1), Gf(2), Gf(3)];
        assert_eq!(xs.iter().copied().sum::<Gf>(), Gf(1) + Gf(2) + Gf(3));
        assert_eq!(xs.iter().copied().product::<Gf>(), Gf(1) * Gf(2) * Gf(3));
    }
}
