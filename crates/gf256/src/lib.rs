//! GF(2^8) finite-field arithmetic, slice kernels, and matrix algebra.
//!
//! This crate is the arithmetic substrate for the Reed-Solomon codec used by
//! the TSUE reproduction. It implements, from scratch:
//!
//! * scalar field operations over GF(2^8) with the AES-adjacent reducing
//!   polynomial `x^8 + x^4 + x^3 + x^2 + 1` (`0x11d`), the conventional
//!   choice for storage Reed-Solomon codes ([`field`]);
//! * compile-time generated log/exp and full multiplication tables
//!   ([`tables`]);
//! * vectorised slice kernels — bulk XOR and multiply-accumulate, one source
//!   into up to four outputs per pass — that the codec uses to stream whole
//!   blocks through the field ([`mod@slice`]). The multiply picks its kernel
//!   at run time: AVX2 split-nibble lookups where the CPU has them, a
//!   portable bit decomposition elsewhere;
//! * dense matrices over the field with Gaussian inversion and the Cauchy
//!   constructor ([`matrix`]).
//!
//! # Example
//!
//! ```
//! use gf256::{Gf, matrix::Matrix};
//!
//! // Field arithmetic.
//! let a = Gf(0x53);
//! let b = Gf(0x8c);
//! assert_eq!(a * b, Gf(0x01)); // 0x53 and 0x8c are inverses under 0x11d
//!
//! // Every square Cauchy matrix is invertible: the MDS property that makes
//! // Reed-Solomon recovery work.
//! let m = Matrix::cauchy(4, 4);
//! let inv = m.inverted().expect("Cauchy matrices are non-singular");
//! assert_eq!(inv.inverted(), Some(m));
//! ```

// `unsafe` is denied everywhere but the one module that holds the AVX2
// kernel (`slice::avx2`, `x86_64` only), which allows it; every unsafe
// block there states why it is sound.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod field;
pub mod matrix;
pub mod slice;
pub mod tables;

pub use field::Gf;
pub use matrix::Matrix;
