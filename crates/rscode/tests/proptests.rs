//! Property tests: the codec is MDS and the incremental paths are exact.

use gf256::slice;
use proptest::prelude::*;
use rscode::{delta, CodeParams, ReedSolomon, Stripe};

/// Strategy over the paper's evaluated code shapes plus a few small ones.
fn code_shape() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![
        Just((2usize, 2usize)),
        Just((3, 2)),
        Just((4, 2)),
        Just((6, 2)),
        Just((6, 3)),
        Just((6, 4)),
        Just((12, 2)),
        Just((12, 3)),
        Just((12, 4)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_erase_reconstruct_roundtrip(
        (k, m) in code_shape(),
        len in 1usize..300,
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(CodeParams::new(k, m).unwrap());
        let mut shards: Vec<Vec<u8>> = (0..k + m)
            .map(|i| {
                (0..len)
                    .map(|b| (seed.wrapping_mul(i as u64 + 1).wrapping_add(b as u64 * 2654435761) >> 16) as u8)
                    .collect()
            })
            .collect();
        rs.encode_shards(&mut shards).unwrap();
        prop_assert!(rs.verify(&shards).unwrap());

        // Erase a pseudo-random m-subset.
        let mut holes: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        let mut x = seed | 1;
        let mut erased = 0;
        while erased < m {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let idx = (x >> 33) as usize % (k + m);
            if holes[idx].is_some() {
                holes[idx] = None;
                erased += 1;
            }
        }
        rs.reconstruct(&mut holes).unwrap();
        for i in 0..k + m {
            prop_assert_eq!(holes[i].as_deref(), Some(&shards[i][..]));
        }
    }

    #[test]
    fn arbitrary_update_sequence_keeps_parity_exact(
        (k, m) in code_shape(),
        updates in proptest::collection::vec(
            (0usize..12, 0usize..100, proptest::collection::vec(any::<u8>(), 1..40)),
            1..20
        ),
    ) {
        let block_len = 160usize;
        let rs = ReedSolomon::new(CodeParams::new(k, m).unwrap());
        let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; block_len]).collect();
        let mut s = Stripe::from_data(rs.clone(), data.clone()).unwrap();
        let mut reference = Stripe::from_data(rs, data).unwrap();

        for (blk, off, bytes) in &updates {
            let blk = blk % k;
            let off = off % (block_len - bytes.len().min(block_len - 1));
            // Incremental path.
            s.update(blk, off, bytes);
            // Reference path: raw write + full re-encode.
            let mut raw: Vec<Vec<u8>> = (0..k).map(|i| reference.block(i).to_vec()).collect();
            raw[blk][off..off + bytes.len()].copy_from_slice(bytes);
            reference = Stripe::from_data(reference.codec().clone(), raw).unwrap();
        }

        for i in 0..k + m {
            prop_assert_eq!(s.block(i), reference.block(i), "block {}", i);
        }
        prop_assert!(s.verify().unwrap());
    }

    #[test]
    fn delta_accumulator_equals_endpoint_delta(
        versions in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 24),
            2..10
        ),
    ) {
        // XOR-folding per-step deltas must equal first-to-last delta (Eq. 4),
        // and one parity delta of the net equals one per step (Eq. 3).
        let rs = ReedSolomon::new(CodeParams::new(6, 3).unwrap());
        let mut acc = vec![0u8; 24];
        let mut per_step = vec![0u8; 24];
        for w in versions.windows(2) {
            let step = delta::data_delta(&w[0], &w[1]);
            slice::xor(&mut acc, &step);
            delta::parity_delta(&rs, 2, 3, &step, &mut per_step);
        }
        let endpoint = delta::data_delta(&versions[0], &versions[versions.len() - 1]);
        prop_assert_eq!(&acc, &endpoint);
        let mut once = vec![0u8; 24];
        delta::parity_delta(&rs, 2, 3, &acc, &mut once);
        prop_assert_eq!(once, per_step);
    }

    #[test]
    fn parity_delta_application_order_is_irrelevant(
        (k, m) in code_shape(),
        d1 in proptest::collection::vec(any::<u8>(), 16),
        d2 in proptest::collection::vec(any::<u8>(), 16),
        d3 in proptest::collection::vec(any::<u8>(), 16),
        j1 in 0usize..12,
        j2 in 0usize..12,
        j3 in 0usize..12,
    ) {
        let rs = ReedSolomon::new(CodeParams::new(k, m).unwrap());
        let (j1, j2, j3) = (j1 % k, j2 % k, j3 % k);
        let base = vec![0x5au8; 16];

        let mut fwd = base.clone();
        delta::parity_delta(&rs, 0, j1, &d1, &mut fwd);
        delta::parity_delta(&rs, 0, j2, &d2, &mut fwd);
        delta::parity_delta(&rs, 0, j3, &d3, &mut fwd);

        let mut rev = base.clone();
        delta::parity_delta(&rs, 0, j3, &d3, &mut rev);
        delta::parity_delta(&rs, 0, j1, &d1, &mut rev);
        delta::parity_delta(&rs, 0, j2, &d2, &mut rev);

        prop_assert_eq!(fwd, rev);
    }
}
