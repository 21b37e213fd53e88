//! Systematic Reed-Solomon erasure codec with incremental-update support.
//!
//! Implements the coding substrate of the TSUE paper:
//!
//! * **Eq. (1)** — full-stripe encoding `P = A · D` over GF(2^8), where `A`
//!   is an `m × k` MDS parity-generation matrix (Cauchy by default,
//!   Vandermonde-derived optionally), normalised so its first row and
//!   first column are ones: the first parity is the XOR of the data blocks
//!   and data block 0 enters every parity unscaled — see
//!   [`codec::ReedSolomon::encode`];
//! * **reconstruction** of up to `m` lost blocks from any `k` survivors by
//!   inverting the corresponding rows of the extended generator matrix —
//!   see [`codec::ReedSolomon::reconstruct`];
//! * **Eq. (2)** — incremental parity delta
//!   `P₁ⁿ = P₁ⁿ⁻¹ + ∂₁₁ · (D₁ⁿ − D₁ⁿ⁻¹)` — see [`delta::parity_delta`];
//! * **Eq. (3)/(4)** — merging repeated updates of the same address so only
//!   the *net* delta is propagated — see [`delta::DeltaAccumulator`];
//! * **Eq. (5)** — merging same-offset deltas from *different data blocks of
//!   the same stripe* into a single parity delta, the DeltaLog trick that
//!   cuts network traffic — see [`delta::combine_stripe_deltas`].
//!
//! # Example
//!
//! ```
//! use rscode::{CodeParams, ReedSolomon};
//!
//! let rs = ReedSolomon::new(CodeParams::new(4, 2).unwrap());
//! let mut shards: Vec<Vec<u8>> = (0..6).map(|i| vec![i as u8; 64]).collect();
//! rs.encode_shards(&mut shards).unwrap();
//!
//! // Lose any two shards...
//! let mut holes: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
//! holes[1] = None;
//! holes[5] = None;
//! // ...and get them back.
//! rs.reconstruct(&mut holes).unwrap();
//! assert_eq!(holes[1].as_deref(), Some(&shards[1][..]));
//! assert_eq!(holes[5].as_deref(), Some(&shards[5][..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod delta;
pub mod stripe;

pub use codec::{CodeParams, MatrixKind, ReedSolomon, RsError};
pub use stripe::Stripe;
