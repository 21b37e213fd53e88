//! The systematic RS(k, m) codec: encode, verify, reconstruct.

use core::fmt;

use gf256::{slice, Gf, Matrix};

/// Errors produced by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// `k` or `m` is zero, or `k + m` exceeds the field size budget.
    InvalidParams {
        /// Requested data-block count.
        k: usize,
        /// Requested parity-block count.
        m: usize,
    },
    /// A shard had a different length from the others.
    ShardSizeMismatch {
        /// Index of the offending shard.
        index: usize,
        /// Its length.
        got: usize,
        /// The expected length.
        expected: usize,
    },
    /// The number of shards passed does not equal `k + m`.
    WrongShardCount {
        /// How many shards were passed.
        got: usize,
        /// How many were expected.
        expected: usize,
    },
    /// Fewer than `k` shards survive: reconstruction is impossible.
    TooManyErasures {
        /// Number of surviving shards.
        present: usize,
        /// Number required.
        needed: usize,
    },
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::InvalidParams { k, m } => {
                write!(f, "invalid RS parameters k={k}, m={m}")
            }
            RsError::ShardSizeMismatch {
                index,
                got,
                expected,
            } => write!(f, "shard {index} has length {got}, expected {expected}"),
            RsError::WrongShardCount { got, expected } => {
                write!(f, "got {got} shards, expected {expected}")
            }
            RsError::TooManyErasures { present, needed } => {
                write!(f, "only {present} shards survive but {needed} are needed")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// Validated RS(k, m) shape: `k` data blocks, `m` parity blocks per stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    k: usize,
    m: usize,
}

impl CodeParams {
    /// Validates and constructs the parameters.
    ///
    /// Requires `k >= 1`, `m >= 1`, and `k + m <= 255` so the generator
    /// matrices stay within GF(2^8).
    pub fn new(k: usize, m: usize) -> Result<CodeParams, RsError> {
        if k == 0 || m == 0 || k + m > 255 {
            return Err(RsError::InvalidParams { k, m });
        }
        Ok(CodeParams { k, m })
    }

    /// Number of data blocks per stripe.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of parity blocks per stripe.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total blocks per stripe (`k + m`).
    #[inline]
    pub fn total(&self) -> usize {
        self.k + self.m
    }
}

/// A systematic Reed-Solomon codec for one `(k, m)` shape.
///
/// Construction precomputes the `m × k` parity matrix; encode/reconstruct
/// are then allocation-light streaming passes over the shards.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    params: CodeParams,
    /// `m × k` parity-generation matrix (the `∂` coefficients of Eq. 1-5).
    parity: Matrix,
}

impl ReedSolomon {
    /// Codec whose parity matrix is the `m × k` Cauchy matrix, normalised.
    ///
    /// Normalising divides each column by its row-0 entry, then each later
    /// row by its column-0 entry, so row 0 and column 0 are all ones: the
    /// first parity (P) is the XOR of the data blocks, data block 0 enters
    /// every parity unscaled, and those coefficients cost an XOR, not a
    /// multiply. Scaling rows and columns by non-zero factors scales the
    /// determinant of every square block by a non-zero factor, so the code
    /// stays MDS (Plank & Xu, NCA 2006).
    pub fn new(params: CodeParams) -> ReedSolomon {
        let mut parity = Matrix::cauchy(params.m, params.k);
        // An MDS parity matrix has no zero entry (each is a 1 × 1 block), so
        // every division here is defined.
        for j in 0..params.k {
            let scale = parity.get(0, j);
            for i in 0..params.m {
                parity.set(i, j, parity.get(i, j) / scale);
            }
        }
        for i in 1..params.m {
            let scale = parity.get(i, 0);
            for j in 0..params.k {
                parity.set(i, j, parity.get(i, j) / scale);
            }
        }
        ReedSolomon { params, parity }
    }

    /// The codec's parameters.
    #[inline]
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The encoding coefficient `∂(parity_idx, data_idx)` of Eq. (1)-(5).
    ///
    /// # Panics
    /// Panics if either index is out of range.
    #[inline]
    pub fn coefficient(&self, parity_idx: usize, data_idx: usize) -> Gf {
        self.parity.get(parity_idx, data_idx)
    }

    /// The coefficients `∂(0..m, data_idx)` with which data block
    /// `data_idx` enters each parity: the `cs` of one
    /// [`slice::mul_acc_rows`] call that folds its delta into all `m`.
    ///
    /// # Panics
    /// Panics if `data_idx >= k`.
    pub fn data_coefficients(&self, data_idx: usize) -> Vec<u8> {
        (0..self.params.m)
            .map(|i| self.parity.get(i, data_idx).value())
            .collect()
    }

    fn check_shard_lengths<T: AsRef<[u8]>>(&self, shards: &[T]) -> Result<usize, RsError> {
        if shards.len() != self.params.total() {
            return Err(RsError::WrongShardCount {
                got: shards.len(),
                expected: self.params.total(),
            });
        }
        let expected = shards[0].as_ref().len();
        for (i, s) in shards.iter().enumerate() {
            if s.as_ref().len() != expected {
                return Err(RsError::ShardSizeMismatch {
                    index: i,
                    got: s.as_ref().len(),
                    expected,
                });
            }
        }
        Ok(expected)
    }

    /// Encodes parity from data: `parity[i] = Σ_j ∂(i,j) · data[j]` (Eq. 1).
    ///
    /// `data` must hold exactly `k` equal-length slices and `parity` exactly
    /// `m` equal-length buffers of the same length; parity buffers are
    /// overwritten.
    pub fn encode(&self, data: &[&[u8]], parity: &mut [&mut [u8]]) -> Result<(), RsError> {
        if data.len() != self.params.k || parity.len() != self.params.m {
            return Err(RsError::WrongShardCount {
                got: data.len() + parity.len(),
                expected: self.params.total(),
            });
        }
        let len = data[0].len();
        for (i, d) in data.iter().enumerate() {
            if d.len() != len {
                return Err(RsError::ShardSizeMismatch {
                    index: i,
                    got: d.len(),
                    expected: len,
                });
            }
        }
        for (i, p) in parity.iter().enumerate() {
            if p.len() != len {
                return Err(RsError::ShardSizeMismatch {
                    index: self.params.k + i,
                    got: p.len(),
                    expected: len,
                });
            }
        }
        for p in parity.iter_mut() {
            p.fill(0);
        }
        fold(parity, data, |i, j| self.parity.get(i, j));
        Ok(())
    }

    /// Encodes in place over a `k + m` shard vector: the first `k` entries
    /// are data, the last `m` are overwritten with parity.
    pub fn encode_shards(&self, shards: &mut [Vec<u8>]) -> Result<(), RsError> {
        self.check_shard_lengths(shards)?;
        let (data, parity) = shards.split_at_mut(self.params.k);
        let data_refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity_refs: Vec<&mut [u8]> = parity.iter_mut().map(|v| v.as_mut_slice()).collect();
        self.encode(&data_refs, &mut parity_refs)
    }

    /// Checks that the parity shards are consistent with the data shards.
    pub fn verify(&self, shards: &[Vec<u8>]) -> Result<bool, RsError> {
        let len = self.check_shard_lengths(shards)?;
        let (data, parity) = shards.split_at(self.params.k);
        let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let expect = combine(len, self.params.m, &data, |i, j| self.parity.get(i, j));
        Ok(expect == parity)
    }

    /// Rebuilds every missing shard (`None` entry) from the survivors.
    ///
    /// Succeeds whenever at least `k` of the `k + m` entries are present,
    /// regardless of *which* ones — the MDS guarantee. Reconstructed entries
    /// are written back as `Some`.
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), RsError> {
        let (k, m) = (self.params.k, self.params.m);
        if shards.len() != k + m {
            return Err(RsError::WrongShardCount {
                got: shards.len(),
                expected: k + m,
            });
        }
        let present: Vec<usize> = (0..k + m).filter(|&i| shards[i].is_some()).collect();
        if present.len() < k {
            return Err(RsError::TooManyErasures {
                present: present.len(),
                needed: k,
            });
        }
        let missing: Vec<usize> = (0..k + m).filter(|&i| shards[i].is_none()).collect();
        if missing.is_empty() {
            return Ok(());
        }
        let len = shards[present[0]].as_ref().unwrap().len();
        for &i in &present {
            let got = shards[i].as_ref().unwrap().len();
            if got != len {
                return Err(RsError::ShardSizeMismatch {
                    index: i,
                    got,
                    expected: len,
                });
            }
        }

        // Extended generator: row i of [I; A] maps data -> shard i.
        let full = self.extended_generator();
        // Use the first k survivors as the solve basis.
        let basis: Vec<usize> = present.iter().copied().take(k).collect();
        let sub = full.select_rows(&basis);
        let inv = sub
            .inverted()
            .expect("any k rows of an MDS generator are invertible");

        // data[j] = Σ_b inv(j, b) * shard[basis[b]] for every missing data
        // block; then missing parity is re-encoded from the full data set.
        let missing_data: Vec<usize> = missing.iter().copied().filter(|&i| i < k).collect();
        let missing_parity: Vec<usize> = missing.iter().copied().filter(|&i| i >= k).collect();
        let solved = {
            let srcs: Vec<&[u8]> = basis
                .iter()
                .map(|&b| shards[b].as_deref().expect("basis shards are present"))
                .collect();
            combine(len, missing_data.len(), &srcs, |r, b| {
                inv.get(missing_data[r], b)
            })
        };
        for (&j, block) in missing_data.iter().zip(solved) {
            shards[j] = Some(block);
        }
        if !missing_parity.is_empty() {
            let data: Vec<&[u8]> = shards[..k]
                .iter()
                .map(|s| s.as_deref().expect("all data present or solved"))
                .collect();
            let rebuilt = combine(len, missing_parity.len(), &data, |r, j| {
                self.parity.get(missing_parity[r] - k, j)
            });
            for (&p, block) in missing_parity.iter().zip(rebuilt) {
                shards[p] = Some(block);
            }
        }
        Ok(())
    }

    /// The `(k+m) × k` extended generator `[I; A]`.
    fn extended_generator(&self) -> Matrix {
        let (k, m) = (self.params.k, self.params.m);
        let mut full = Matrix::zero(k + m, k);
        for i in 0..k {
            full.set(i, i, Gf::ONE);
        }
        for i in 0..m {
            for j in 0..k {
                full.set(k + i, j, self.parity.get(i, j));
            }
        }
        full
    }
}

/// `outs[r] ^= Σ_s coeff(r, s) · srcs[s]`, reading each source once for all
/// outputs (one [`slice::mul_acc_rows`] call per source).
fn fold(outs: &mut [&mut [u8]], srcs: &[&[u8]], coeff: impl Fn(usize, usize) -> Gf) {
    let mut cs = vec![0u8; outs.len()];
    for (s, src) in srcs.iter().enumerate() {
        for (r, c) in cs.iter_mut().enumerate() {
            *c = coeff(r, s).value();
        }
        slice::mul_acc_rows(outs, src, &cs);
    }
}

/// [`fold`] into `rows` fresh zeroed outputs of `len` bytes.
fn combine(
    len: usize,
    rows: usize,
    srcs: &[&[u8]],
    coeff: impl Fn(usize, usize) -> Gf,
) -> Vec<Vec<u8>> {
    let mut out = vec![vec![0u8; len]; rows];
    let mut refs: Vec<&mut [u8]> = out.iter_mut().map(Vec::as_mut_slice).collect();
    fold(&mut refs, srcs, coeff);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_shards(k: usize, m: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k + m)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 131 + b * 17 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn params_validation() {
        assert!(CodeParams::new(0, 2).is_err());
        assert!(CodeParams::new(2, 0).is_err());
        assert!(CodeParams::new(200, 56).is_err());
        let p = CodeParams::new(6, 4).unwrap();
        assert_eq!(p.k(), 6);
        assert_eq!(p.m(), 4);
        assert_eq!(p.total(), 10);
    }

    #[test]
    fn encode_verify_roundtrip() {
        let rs = ReedSolomon::new(CodeParams::new(6, 3).unwrap());
        let mut shards = make_shards(6, 3, 512);
        rs.encode_shards(&mut shards).unwrap();
        assert!(rs.verify(&shards).unwrap());
        shards[0][10] ^= 1;
        assert!(!rs.verify(&shards).unwrap());
    }

    /// The normalised RS(6,3) generator, `∂(i, j)` for parity `i` and data
    /// block `j`. Every parity block the engine, the simulator and stored
    /// stripes hold depends on these bytes.
    #[test]
    fn rs_6_3_generator_is_pinned() {
        const GENERATOR: [[u8; 6]; 3] = [
            [0x01, 0x01, 0x01, 0x01, 0x01, 0x01],
            [0x01, 0xe1, 0x97, 0xac, 0x52, 0xc8],
            [0x01, 0xa6, 0xc4, 0xee, 0x53, 0x92],
        ];
        let rs = ReedSolomon::new(CodeParams::new(6, 3).unwrap());
        for (i, row) in GENERATOR.iter().enumerate() {
            for (j, &c) in row.iter().enumerate() {
                assert_eq!(rs.coefficient(i, j), Gf(c), "∂({i}, {j})");
            }
        }
    }

    #[test]
    fn reconstruct_every_single_erasure() {
        let rs = ReedSolomon::new(CodeParams::new(6, 4).unwrap());
        let mut shards = make_shards(6, 4, 128);
        rs.encode_shards(&mut shards).unwrap();
        for lost in 0..10 {
            let mut holes: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            holes[lost] = None;
            rs.reconstruct(&mut holes).unwrap();
            assert_eq!(
                holes[lost].as_deref(),
                Some(&shards[lost][..]),
                "lost {lost}"
            );
        }
    }

    #[test]
    fn reconstruct_all_m_sized_erasure_patterns() {
        let (k, m) = (4usize, 3usize);
        let rs = ReedSolomon::new(CodeParams::new(k, m).unwrap());
        let mut shards = make_shards(k, m, 64);
        rs.encode_shards(&mut shards).unwrap();
        // Every 3-subset of 7 shards.
        for a in 0..k + m {
            for b in a + 1..k + m {
                for c in b + 1..k + m {
                    let mut holes: Vec<Option<Vec<u8>>> =
                        shards.iter().cloned().map(Some).collect();
                    holes[a] = None;
                    holes[b] = None;
                    holes[c] = None;
                    rs.reconstruct(&mut holes).unwrap();
                    for i in 0..k + m {
                        assert_eq!(
                            holes[i].as_deref(),
                            Some(&shards[i][..]),
                            "pattern ({a},{b},{c}) shard {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn too_many_erasures_rejected() {
        let rs = ReedSolomon::new(CodeParams::new(4, 2).unwrap());
        let mut shards = make_shards(4, 2, 64);
        rs.encode_shards(&mut shards).unwrap();
        let mut holes: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        holes[0] = None;
        holes[1] = None;
        holes[2] = None;
        let err = rs.reconstruct(&mut holes).unwrap_err();
        assert_eq!(
            err,
            RsError::TooManyErasures {
                present: 3,
                needed: 4
            }
        );
    }

    #[test]
    fn shard_length_mismatch_rejected() {
        let rs = ReedSolomon::new(CodeParams::new(2, 2).unwrap());
        let mut shards = make_shards(2, 2, 64);
        shards[3].push(0);
        assert!(matches!(
            rs.encode_shards(&mut shards),
            Err(RsError::ShardSizeMismatch { index: 3, .. })
        ));
    }

    #[test]
    fn wrong_shard_count_rejected() {
        let rs = ReedSolomon::new(CodeParams::new(2, 2).unwrap());
        let mut shards = make_shards(2, 1, 64);
        assert!(matches!(
            rs.encode_shards(&mut shards),
            Err(RsError::WrongShardCount {
                got: 3,
                expected: 4
            })
        ));
    }

    #[test]
    fn reconstruct_noop_when_nothing_missing() {
        let rs = ReedSolomon::new(CodeParams::new(3, 2).unwrap());
        let mut shards = make_shards(3, 2, 32);
        rs.encode_shards(&mut shards).unwrap();
        let mut holes: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        rs.reconstruct(&mut holes).unwrap();
        for i in 0..5 {
            assert_eq!(holes[i].as_deref(), Some(&shards[i][..]));
        }
    }

    /// The subsets of `0..n`, grouped by size.
    fn subsets_by_size(n: usize) -> Vec<Vec<Vec<usize>>> {
        let mut by_size = vec![Vec::new(); n + 1];
        for mask in 1u32..1 << n {
            let set: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            by_size[set.len()].push(set);
        }
        by_size
    }

    #[test]
    fn normalised_matrix_has_unit_first_row_and_column_and_stays_mds() {
        for (k, m) in [(3, 2), (4, 2), (6, 3), (6, 4), (10, 4), (12, 4)] {
            let rs = ReedSolomon::new(CodeParams::new(k, m).unwrap());
            let a = |i, j| rs.coefficient(i, j);
            assert!((0..k).all(|j| a(0, j) == Gf::ONE), "RS({k},{m}) row 0");
            assert!((0..m).all(|i| a(i, 0) == Gf::ONE), "RS({k},{m}) col 0");
            // Every square block non-singular: [I; A] is MDS.
            let (rows, cols) = (subsets_by_size(m), subsets_by_size(k));
            for size in 1..=m {
                for r in &rows[size] {
                    for c in &cols[size] {
                        let bytes: Vec<u8> = r
                            .iter()
                            .flat_map(|&i| c.iter().map(move |&j| a(i, j).value()))
                            .collect();
                        let block = Matrix::from_rows(size, size, &bytes);
                        assert!(
                            block.inverted().is_some(),
                            "RS({k},{m}) rows {r:?} cols {c:?} singular"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_code_shapes_all_work() {
        for (k, m) in [(6, 2), (6, 3), (6, 4), (12, 2), (12, 3), (12, 4)] {
            let rs = ReedSolomon::new(CodeParams::new(k, m).unwrap());
            let mut shards = make_shards(k, m, 256);
            rs.encode_shards(&mut shards).unwrap();
            assert!(rs.verify(&shards).unwrap());
            let mut holes: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            for i in 0..m {
                holes[i * 2] = None; // spread erasures over data and parity
            }
            rs.reconstruct(&mut holes).unwrap();
            for i in 0..k + m {
                assert_eq!(holes[i].as_deref(), Some(&shards[i][..]), "RS({k},{m})");
            }
        }
    }
}
