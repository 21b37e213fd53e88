//! In-memory stripe: `k` data blocks plus `m` parity blocks kept
//! consistent under sub-block updates.
//!
//! `Stripe` is the byte-level ground truth of `tests/full_stack.rs` and of
//! this crate's proptests: the real-byte engine and the incremental
//! update paths must converge to the state a `Stripe` reaches via direct
//! incremental updates. The cluster simulator's consistency oracle
//! (`ecfs::cluster::Oracle`) does not use it: it tracks coverage
//! intervals only.

use gf256::slice;

use crate::codec::{CodeParams, ReedSolomon, RsError};
use crate::delta;

/// A fully materialised stripe with always-consistent parity.
#[derive(Debug, Clone)]
pub struct Stripe {
    rs: ReedSolomon,
    block_len: usize,
    blocks: Vec<Vec<u8>>,
}

impl Stripe {
    /// Creates a stripe of zeroed blocks.
    pub fn zeroed(rs: ReedSolomon, block_len: usize) -> Stripe {
        let total = rs.params().total();
        Stripe {
            rs,
            block_len,
            blocks: vec![vec![0u8; block_len]; total],
        }
    }

    /// Creates a stripe from `k` data blocks, computing parity.
    pub fn from_data(rs: ReedSolomon, data: Vec<Vec<u8>>) -> Result<Stripe, RsError> {
        let params = rs.params();
        if data.len() != params.k() {
            return Err(RsError::WrongShardCount {
                got: data.len(),
                expected: params.k(),
            });
        }
        let block_len = data[0].len();
        let mut blocks = data;
        blocks.resize(params.total(), vec![0u8; block_len]);
        let mut s = Stripe {
            rs,
            block_len,
            blocks,
        };
        s.reencode()?;
        Ok(s)
    }

    /// The codec used by this stripe.
    pub fn codec(&self) -> &ReedSolomon {
        &self.rs
    }

    /// The code parameters.
    pub fn params(&self) -> CodeParams {
        self.rs.params()
    }

    /// Block length in bytes.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Read-only view of block `idx` (data for `idx < k`, parity otherwise).
    ///
    /// # Panics
    /// Panics if `idx >= k + m`.
    pub fn block(&self, idx: usize) -> &[u8] {
        &self.blocks[idx]
    }

    /// Reads `len` bytes at `offset` within data block `idx`.
    ///
    /// # Panics
    /// Panics if the range exceeds the block or `idx` is not a data block.
    pub fn read(&self, idx: usize, offset: usize, len: usize) -> &[u8] {
        assert!(idx < self.params().k(), "read: not a data block");
        &self.blocks[idx][offset..offset + len]
    }

    /// Applies a sub-block update to data block `idx` at `offset`,
    /// incrementally folding the parity deltas into every parity block
    /// (Eq. 2 applied at sub-block granularity).
    ///
    /// Returns the data delta for the updated byte range.
    ///
    /// # Panics
    /// Panics if the range exceeds the block or `idx` is not a data block.
    pub fn update(&mut self, idx: usize, offset: usize, new: &[u8]) -> Vec<u8> {
        let k = self.params().k();
        assert!(idx < k, "update: not a data block");
        assert!(
            offset + new.len() <= self.block_len,
            "update: range out of bounds"
        );
        let range = offset..offset + new.len();
        let (data, parity) = self.blocks.split_at_mut(k);
        let dd = delta::data_delta(&data[idx][range.clone()], new);
        data[idx][range.clone()].copy_from_slice(new);
        let mut parity: Vec<&mut [u8]> = parity.iter_mut().map(|b| &mut b[range.clone()]).collect();
        slice::mul_acc_rows(&mut parity, &dd, &self.rs.data_coefficients(idx));
        dd
    }

    /// Recomputes all parity from the data blocks (reference path).
    pub fn reencode(&mut self) -> Result<(), RsError> {
        self.rs.encode_shards(&mut self.blocks)
    }

    /// Checks parity consistency.
    pub fn verify(&self) -> Result<bool, RsError> {
        self.rs.verify(&self.blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stripe(k: usize, m: usize, len: usize) -> Stripe {
        let rs = ReedSolomon::new(CodeParams::new(k, m).unwrap());
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| (0..len).map(|b| ((i + 1) * (b + 3) % 256) as u8).collect())
            .collect();
        Stripe::from_data(rs, data).unwrap()
    }

    #[test]
    fn fresh_stripe_verifies() {
        let s = stripe(6, 3, 256);
        assert!(s.verify().unwrap());
    }

    #[test]
    fn incremental_update_keeps_parity_consistent() {
        let mut s = stripe(6, 3, 256);
        s.update(0, 0, &[0xde, 0xad, 0xbe, 0xef]);
        s.update(3, 100, &[0x42; 50]);
        s.update(5, 252, &[1, 2, 3, 4]);
        assert!(s.verify().unwrap());
    }

    #[test]
    fn incremental_matches_reencode() {
        let mut a = stripe(4, 2, 128);
        let mut b = a.clone();
        a.update(2, 17, &[0x99; 31]);
        b.blocks[2][17..48].copy_from_slice(&[0x99; 31]);
        b.reencode().unwrap();
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn read_returns_updated_bytes() {
        let mut s = stripe(4, 2, 64);
        s.update(1, 10, &[7, 8, 9]);
        assert_eq!(s.read(1, 10, 3), &[7, 8, 9]);
    }

    #[test]
    fn recovery_drill_after_updates() {
        let mut s = stripe(6, 4, 128);
        for i in 0..6 {
            s.update(i, i * 13, &[(0xa0 + i) as u8; 20]);
        }
        // Loses the given blocks and rebuilds them; whether the rebuilt
        // stripe equals the original bytes.
        let drill = |lost: &[usize]| -> Result<bool, RsError> {
            let mut holes: Vec<Option<Vec<u8>>> = s.blocks.iter().cloned().map(Some).collect();
            for &l in lost {
                holes[l] = None;
            }
            s.rs.reconstruct(&mut holes)?;
            Ok(holes
                .iter()
                .zip(&s.blocks)
                .all(|(h, b)| h.as_deref() == Some(&b[..])))
        };
        // Lose a mix of data and parity up to m blocks.
        assert!(drill(&[0]).unwrap());
        assert!(drill(&[0, 7]).unwrap());
        assert!(drill(&[1, 3, 8]).unwrap());
        assert!(drill(&[0, 2, 6, 9]).unwrap());
        // m + 1 losses must fail.
        assert!(drill(&[0, 1, 2, 3, 4]).is_err());
    }

    #[test]
    fn update_returns_data_delta() {
        let mut s = stripe(2, 2, 16);
        let old = s.read(0, 4, 4).to_vec();
        let new = [9u8, 9, 9, 9];
        let dd = s.update(0, 4, &new);
        for i in 0..4 {
            assert_eq!(dd[i], old[i] ^ new[i]);
        }
    }

    #[test]
    #[should_panic(expected = "not a data block")]
    fn updating_parity_panics() {
        let mut s = stripe(2, 2, 16);
        s.update(2, 0, &[1]);
    }
}
