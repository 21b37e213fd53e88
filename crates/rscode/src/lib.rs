//! Systematic Reed-Solomon erasure codec with incremental-update support.
//!
//! Implements the coding substrate of the TSUE paper:
//!
//! * **Eq. (1)** — full-stripe encoding `P = A · D` over GF(2^8), where `A`
//!   is the `m × k` Cauchy matrix, normalised so its first row and first
//!   column are ones: the first parity is the XOR of the data blocks and
//!   data block 0 enters every parity unscaled — see
//!   [`codec::ReedSolomon::new`] and [`codec::ReedSolomon::encode`];
//! * **reconstruction** of up to `m` lost blocks from any `k` survivors by
//!   inverting the corresponding rows of the extended generator matrix —
//!   see [`codec::ReedSolomon::reconstruct`];
//! * **Eq. (2)** — incremental parity delta
//!   `P₁ⁿ = P₁ⁿ⁻¹ + ∂₁₁ · (D₁ⁿ − D₁ⁿ⁻¹)` — see [`delta::data_delta`] and
//!   [`delta::parity_delta`].
//!
//! Eq. (3)–(5) are sums of Eq. (2) terms, so they need no API of their own:
//! repeated updates of one address merge into the *net* delta (Eq. 3/4) in
//! `tsue::index`'s XOR merge (`MergeMode::Xor`), and same-offset deltas from
//! different data blocks of one stripe fold into one parity delta per
//! parity block (Eq. 5) in the `tsue` engine's DeltaLog fold.
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

pub use codec::{CodeParams, ReedSolomon, RsError};
pub use stripe::Stripe;
