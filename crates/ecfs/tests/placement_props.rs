//! Property tests for the resource-aware placement bounds: the
//! capacity-weighted fill spread and the copyset budget, across random
//! fleets (proptest shim).

use ecfs::prelude::*;
use proptest::prelude::*;

fn stripe_nodes(policy: Placement, code: CodeParams, racks: &RackMap, stripe: u64) -> Vec<usize> {
    (0..code.total() as u16)
        .map(|index| {
            policy.node_of(
                BlockAddr {
                    volume: 3,
                    stripe,
                    index,
                },
                code,
                racks,
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `CapacityWeighted` keeps every disk's fill ratio (blocks placed per
    /// unit of capacity weight) within its documented spread bound, and
    /// never co-locates two blocks of one stripe — across random fleet
    /// shapes and capacity skews in the bound's documented envelope
    /// (weight ratio <= 4, nodes >= 2·(k+m)).
    #[test]
    fn capacity_weighted_fill_stays_within_bound(
        nodes in 12usize..21,
        weights in proptest::collection::vec(1u64..5, 21),
    ) {
        let code = CodeParams::new(4, 2).unwrap();
        let rm = RackMap::contiguous(nodes, 1).with_node_weights(weights[..nodes].to_vec());
        let policy = Placement::CapacityWeighted;
        policy.check(code, &rm).unwrap();
        let stripes = 600u64;
        let mut count = vec![0u64; nodes];
        for stripe in 0..stripes {
            let placed = stripe_nodes(policy, code, &rm, stripe);
            let mut sorted = placed.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), code.total(), "stripe {} co-located blocks", stripe);
            for n in placed {
                count[n] += 1;
            }
        }
        let fills: Vec<f64> = (0..nodes)
            .map(|n| count[n] as f64 / rm.weight_of(n) as f64)
            .collect();
        let max = fills.iter().cloned().fold(0.0f64, f64::max);
        let min = fills.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(min > 0.0, "some disk got no blocks at all: {:?}", count);
        prop_assert!(
            max / min < Placement::FILL_SPREAD_BOUND,
            "fill spread {:.2} exceeds the documented bound {} (weights {:?}, counts {:?})",
            max / min,
            Placement::FILL_SPREAD_BOUND,
            &weights[..nodes],
            count
        );
    }

    /// `Copyset` never produces more distinct co-location sets than its
    /// budget, every set has exactly `k + m` distinct members, and blocks
    /// never leave their stripe's copyset.
    #[test]
    fn copyset_budget_caps_distinct_sets(
        nodes in 8usize..21,
        budget in 1usize..11,
    ) {
        let code = CodeParams::new(4, 2).unwrap();
        let rm = RackMap::contiguous(nodes, 1);
        let policy = Placement::Copyset { budget };
        policy.check(code, &rm).unwrap();
        let mut sets = std::collections::HashSet::new();
        for stripe in 0..300u64 {
            let mut placed = stripe_nodes(policy, code, &rm, stripe);
            placed.sort_unstable();
            placed.dedup();
            prop_assert_eq!(placed.len(), code.total(), "stripe {} co-located blocks", stripe);
            sets.insert(placed);
        }
        prop_assert!(
            sets.len() <= budget,
            "{} distinct copysets exceed the budget of {}",
            sets.len(),
            budget
        );
    }

    /// The weighted sampler actually *uses* capacity: a node carrying 4x
    /// weight receives measurably more blocks than a unit-weight node of
    /// the same fleet (monotonicity — the property CapacityWeighted exists
    /// for; uniform-weight fleets degrade to even rotation).
    #[test]
    fn capacity_weighted_is_monotone_in_weight(nodes in 12usize..21) {
        let code = CodeParams::new(4, 2).unwrap();
        let mut weights = vec![1u64; nodes];
        weights[0] = 4;
        let rm = RackMap::contiguous(nodes, 1).with_node_weights(weights);
        let mut count = vec![0u64; nodes];
        for stripe in 0..600u64 {
            for n in stripe_nodes(Placement::CapacityWeighted, code, &rm, stripe) {
                count[n] += 1;
            }
        }
        let light_mean =
            count[1..].iter().sum::<u64>() as f64 / (nodes - 1) as f64;
        prop_assert!(
            count[0] as f64 > 1.5 * light_mean,
            "heavy node got {} blocks vs light mean {:.0}",
            count[0],
            light_mean
        );
    }
}
