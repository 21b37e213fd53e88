//! Incremental-update mathematics: Eq. (2) of the paper, the primitive the
//! log layers build Eq. (3)–(5) from.
//!
//! The whole point of delta-based erasure-code updates is that a small write
//! to one data block can be folded into each parity block without touching
//! the other `k − 1` data blocks:
//!
//! * Eq. (2): `Pᵢⁿ = Pᵢⁿ⁻¹ + ∂ᵢⱼ · ΔD` with `ΔD = Dⁿ − Dⁿ⁻¹` — [`data_delta`]
//!   and [`parity_delta`];
//! * Eq. (3)/(4): repeated updates at one address collapse — XOR-merging the
//!   data deltas first and multiplying once equals applying each delta
//!   separately, so only the *net* change travels. `tsue::index` realises
//!   this as its XOR merge (`MergeMode::Xor`);
//! * Eq. (5): same-offset deltas from *different* data blocks of one stripe
//!   combine into a single parity delta per parity block, because parity is
//!   linear in all data blocks. The `tsue` engine's DeltaLog fold does this.

use gf256::slice;

use crate::codec::ReedSolomon;

/// Computes the data delta `ΔD = new − old` (XOR in characteristic 2).
///
/// # Panics
/// Panics if lengths differ.
pub fn data_delta(old: &[u8], new: &[u8]) -> Vec<u8> {
    assert_eq!(old.len(), new.len(), "data_delta: length mismatch");
    old.iter().zip(new).map(|(&a, &b)| a ^ b).collect()
}

/// Eq. (2): folds `∂(parity_idx, data_idx) · data_delta` into `parity_acc`.
///
/// `parity_acc` may be an actual parity block (in-place update) or a parity
/// *delta* accumulator that is applied later — the operation is the same.
///
/// # Panics
/// Panics if lengths differ or indices are out of range.
pub fn parity_delta(
    rs: &ReedSolomon,
    parity_idx: usize,
    data_idx: usize,
    data_delta: &[u8],
    parity_acc: &mut [u8],
) {
    let c = rs.coefficient(parity_idx, data_idx).value();
    slice::mul_acc(parity_acc, data_delta, c);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodeParams;

    fn setup(k: usize, m: usize, len: usize) -> (ReedSolomon, Vec<Vec<u8>>) {
        let rs = ReedSolomon::new(CodeParams::new(k, m).unwrap());
        let mut shards: Vec<Vec<u8>> = (0..k + m)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 37 + b * 11 + 3) % 256) as u8)
                    .collect()
            })
            .collect();
        rs.encode_shards(&mut shards).unwrap();
        (rs, shards)
    }

    #[test]
    fn eq2_incremental_matches_reencode() {
        let (rs, mut shards) = setup(6, 4, 128);
        // Update block 2 with new content.
        let new_block: Vec<u8> = (0..128).map(|b| (b * 7 + 99) as u8).collect();
        let dd = data_delta(&shards[2], &new_block);

        // Incremental path (Eq. 2): fold ∂·ΔD into each parity in place.
        let mut incr = shards.clone();
        incr[2] = new_block.clone();
        for p in 0..4 {
            let (data_part, parity_part) = incr.split_at_mut(6);
            let _ = data_part;
            parity_delta(&rs, p, 2, &dd, &mut parity_part[p]);
        }

        // Reference path: full re-encode.
        shards[2] = new_block;
        rs.encode_shards(&mut shards).unwrap();

        assert_eq!(incr, shards);
    }

    #[test]
    fn eq3_merged_deltas_match_sequential_application() {
        let (rs, shards) = setup(4, 2, 64);
        let orig = shards[1].clone();

        // Three successive updates to block 1.
        let v1: Vec<u8> = (0..64).map(|b| (b + 1) as u8).collect();
        let v2: Vec<u8> = (0..64).map(|b| (b * 3) as u8).collect();
        let v3: Vec<u8> = (0..64).map(|b| (b * 5 + 2) as u8).collect();

        // Sequential: apply each delta to parity as it happens.
        let mut seq_parity = shards[4].clone();
        let mut cur = orig.clone();
        for v in [&v1, &v2, &v3] {
            let dd = data_delta(&cur, v);
            parity_delta(&rs, 0, 1, &dd, &mut seq_parity);
            cur = v.clone();
        }

        // Merged (Eq. 3): XOR the deltas together, apply once.
        let mut net = vec![0u8; 64];
        let mut cur = orig.clone();
        for v in [&v1, &v2, &v3] {
            slice::xor(&mut net, &data_delta(&cur, v));
            cur = v.clone();
        }
        let mut merged_parity = shards[4].clone();
        parity_delta(&rs, 0, 1, &net, &mut merged_parity);

        assert_eq!(seq_parity, merged_parity);

        // Eq. 4 sanity: the net delta equals last-new XOR first-old.
        assert_eq!(net, data_delta(&orig, &v3));
    }

    #[test]
    fn eq5_combined_delta_matches_individual_deltas() {
        let (rs, shards) = setup(6, 3, 96);

        // Same-offset updates to data blocks 0, 2 and 4.
        let updates: Vec<(usize, Vec<u8>)> = [0usize, 2, 4]
            .iter()
            .map(|&j| {
                let new: Vec<u8> = (0..96).map(|b| ((b * (j + 2)) % 256) as u8).collect();
                (j, data_delta(&shards[j], &new))
            })
            .collect();

        for p in 0..3 {
            // Individually applied.
            let mut indiv = shards[6 + p].clone();
            for (j, dd) in &updates {
                parity_delta(&rs, p, *j, dd, &mut indiv);
            }
            // Combined (Eq. 5): one parity delta from all data deltas,
            // then XOR-applied to the parity block.
            let mut combined = vec![0u8; 96];
            for (j, dd) in &updates {
                parity_delta(&rs, p, *j, dd, &mut combined);
            }
            let mut comb = shards[6 + p].clone();
            slice::xor(&mut comb, &combined);

            assert_eq!(indiv, comb, "parity {p}");
        }
    }

    #[test]
    fn parity_deltas_commute() {
        let (rs, shards) = setup(4, 2, 32);
        let d1 = data_delta(&shards[0], &[0xaa; 32]);
        let d2 = data_delta(&shards[3], &[0x55; 32]);

        let mut order_a = shards[4].clone();
        parity_delta(&rs, 0, 0, &d1, &mut order_a);
        parity_delta(&rs, 0, 3, &d2, &mut order_a);

        let mut order_b = shards[4].clone();
        parity_delta(&rs, 0, 3, &d2, &mut order_b);
        parity_delta(&rs, 0, 0, &d1, &mut order_b);

        assert_eq!(order_a, order_b);
    }
}
