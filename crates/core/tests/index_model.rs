//! Model-based property tests: the two-level index against a naive
//! byte-array oracle, and the full engine against a re-encode oracle.

use proptest::prelude::*;
use rscode::{CodeParams, ReedSolomon};
use tsue::engine::{EngineConfig, TsueEngine};
use tsue::index::{BlockIndex, MergeMode};
use tsue::payload::{Data, Payload};

const SPACE: usize = 4096;

/// Byte-level oracle for Overwrite mode: `None` = absent, `Some(b)` = byte.
fn overwrite_oracle(writes: &[(u32, Vec<u8>)]) -> Vec<Option<u8>> {
    let mut model = vec![None; SPACE];
    for (off, data) in writes {
        for (i, &b) in data.iter().enumerate() {
            model[*off as usize + i] = Some(b);
        }
    }
    model
}

/// Byte-level oracle for Xor mode.
fn xor_oracle(writes: &[(u32, Vec<u8>)]) -> Vec<Option<u8>> {
    let mut model = vec![None; SPACE];
    for (off, data) in writes {
        for (i, &b) in data.iter().enumerate() {
            let slot = &mut model[*off as usize + i];
            *slot = Some(slot.unwrap_or(0) ^ b);
        }
    }
    model
}

/// Flattens drained index ranges back to the byte model.
fn ranges_to_model(ranges: &[(u32, Data)]) -> Vec<Option<u8>> {
    let mut model = vec![None; SPACE];
    for (off, p) in ranges {
        for (i, &b) in p.as_slice().iter().enumerate() {
            assert!(
                model[*off as usize + i].is_none(),
                "drained ranges overlap at {}",
                *off as usize + i
            );
            model[*off as usize + i] = Some(b);
        }
    }
    model
}

fn writes_strategy() -> impl Strategy<Value = Vec<(u32, Vec<u8>)>> {
    proptest::collection::vec(
        (0u32..3800, proptest::collection::vec(any::<u8>(), 1..200)),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn overwrite_index_matches_byte_oracle(writes in writes_strategy()) {
        let mut idx: BlockIndex<Data> = BlockIndex::new();
        for (off, data) in &writes {
            idx.insert(*off, Data::copy_from(data), MergeMode::Overwrite);
        }
        let ranges = idx.into_sorted_ranges();
        prop_assert_eq!(ranges_to_model(&ranges), overwrite_oracle(&writes));
        // Non-adjacency invariant: consecutive ranges have a gap.
        for w in ranges.windows(2) {
            prop_assert!(w[0].0 + w[0].1.len() < w[1].0);
        }
    }

    #[test]
    fn xor_index_matches_byte_oracle(writes in writes_strategy()) {
        let mut idx: BlockIndex<Data> = BlockIndex::new();
        for (off, data) in &writes {
            idx.insert(*off, Data::copy_from(data), MergeMode::Xor);
        }
        let ranges = idx.into_sorted_ranges();
        prop_assert_eq!(ranges_to_model(&ranges), xor_oracle(&writes));
    }

    #[test]
    fn lookup_agrees_with_oracle(
        writes in writes_strategy(),
        q_off in 0u32..4000,
        q_len in 1u32..96,
    ) {
        let q_len = q_len.min(SPACE as u32 - q_off);
        let mut idx: BlockIndex<Data> = BlockIndex::new();
        for (off, data) in &writes {
            idx.insert(*off, Data::copy_from(data), MergeMode::Overwrite);
        }
        let oracle = overwrite_oracle(&writes);
        let hits = idx.lookup(q_off, q_len);
        // Every returned byte must match the oracle, and every present
        // oracle byte in range must be returned.
        let mut covered = vec![false; q_len as usize];
        for (o, p) in &hits {
            for (i, &b) in p.as_slice().iter().enumerate() {
                let abs = *o as usize + i;
                prop_assert_eq!(oracle[abs], Some(b), "byte {} mismatches", abs);
                covered[abs - q_off as usize] = true;
            }
        }
        for (i, &cov) in covered.iter().enumerate().take(q_len as usize) {
            let abs = q_off as usize + i;
            prop_assert_eq!(
                cov,
                oracle[abs].is_some(),
                "coverage mismatch at {}",
                abs
            );
        }
        // Absent exactly when the oracle holds no byte of the query.
        let range = q_off as usize..(q_off + q_len) as usize;
        prop_assert_eq!(
            idx.definitely_absent(q_off, q_len),
            oracle[range].iter().all(Option::is_none)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_parity_matches_reencode_after_random_updates(
        updates in proptest::collection::vec(
            (0u64..2, 0u16..3, 0u32..4000, proptest::collection::vec(any::<u8>(), 1..96)),
            1..120
        ),
    ) {
        let engine = TsueEngine::new(EngineConfig {
            code: CodeParams::new(3, 2).unwrap(),
            block_len: 4096,
            stripes: 2,
            unit_bytes: 4096,
            max_units: 4,
            pools_per_layer: 2,
            recycler_threads: 1,
        });
        // Shadow model of data blocks.
        let mut shadow = vec![vec![0u8; 4096]; 2 * 3];
        for (stripe, block, off, bytes) in &updates {
            let off = (*off).min(4096 - bytes.len() as u32);
            engine.update(*stripe, *block, off, bytes);
            let sb = &mut shadow[*stripe as usize * 3 + *block as usize];
            sb[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        }
        engine.flush();
        prop_assert!(engine.verify_parity());
        // Data blocks must equal the shadow model.
        for s in 0..2u64 {
            for b in 0..3usize {
                prop_assert_eq!(
                    engine.raw_block(s, b),
                    shadow[s as usize * 3 + b].clone(),
                    "stripe {} block {}", s, b
                );
            }
        }
        // Parity must equal a fresh re-encode of the shadow model.
        let rs = ReedSolomon::new(CodeParams::new(3, 2).unwrap());
        for s in 0..2u64 {
            let data: Vec<&[u8]> =
                (0..3).map(|b| shadow[s as usize * 3 + b].as_slice()).collect();
            let mut parity = vec![vec![0u8; 4096]; 2];
            let mut refs: Vec<&mut [u8]> =
                parity.iter_mut().map(|v| v.as_mut_slice()).collect();
            rs.encode(&data, &mut refs).unwrap();
            for (p, par) in parity.iter().enumerate() {
                prop_assert_eq!(
                    engine.raw_block(s, 3 + p),
                    par.clone(),
                    "stripe {} parity {}", s, p
                );
            }
        }
    }
}
