//! Block placement: the policy deciding which OSD hosts each block of a
//! stripe, rack-aware where the topology has racks.
//!
//! The MDS's placement decision is a [`Placement`], one of five built-in
//! policies, so clusters can trade fault tolerance against cross-rack
//! traffic:
//!
//! | policy | stripe blocks | rack failure | cross-rack update traffic |
//! |---|---|---|---|
//! | [`FlatRotate`] | hash-rotated over all nodes | may lose > m blocks | topology-blind |
//! | [`RackAware`]  | round-robin across racks | loses ≤ ⌈(k+m)/racks⌉ blocks | high (parity spread out) |
//! | [`RackLocal`]  | parity co-racked, data spread | parity rack loses all m | low (parity deltas stay in one rack) |
//! | [`CapacityWeighted`] | weighted by node capacity | may lose > m blocks | topology-blind |
//! | [`Copyset`]    | confined to ≤ `budget` co-location sets | may lose > m blocks | topology-blind |
//!
//! [`RackAware`] is the Rashmi-style availability placement; [`RackLocal`]
//! follows the clustered-network-coding argument (Kermarrec et al.): keep
//! the update-heavy parity group behind one top-of-rack switch so the
//! spine only carries the data-block delta once. [`CapacityWeighted`] and
//! [`Copyset`] are the resource-aware pair for heterogeneous fleets: the
//! former fills big disks proportionally faster so no node runs out first,
//! the latter caps the number of distinct stripe co-location sets so a
//! multi-node failure intersects few stripes (the copyset argument of
//! Cidon et al.).
//!
//! Every policy maps the `k + m` blocks of one stripe to distinct nodes.
//! [`FlatRotate`] on a single rack is the default. A cluster takes a
//! policy as a variant, e.g. `Placement::RackAware` or
//! `Placement::Copyset { budget: 4 }`; reports print its
//! [`Placement::name`].
//!
//! [`FlatRotate`]: Placement::FlatRotate
//! [`RackAware`]: Placement::RackAware
//! [`RackLocal`]: Placement::RackLocal
//! [`CapacityWeighted`]: Placement::CapacityWeighted
//! [`Copyset`]: Placement::Copyset

use rscode::CodeParams;

use crate::layout::BlockAddr;

/// Node → rack assignment used by placement decisions (the OSD side of the
/// fabric's [`simnet::Topology`]), plus a per-node capacity weight so
/// resource-aware policies can see a heterogeneous fleet's skew.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RackMap {
    rack_of: Vec<usize>,
    members: Vec<Vec<usize>>,
    /// Relative capacity per node (MiB-scale units from the fleet; all 1
    /// for a uniform fleet, so weight-blind policies are unaffected).
    weights: Vec<u64>,
}

impl RackMap {
    /// Splits `nodes` OSDs into `racks` contiguous racks (sizes differ by
    /// at most one), with unit weights.
    ///
    /// # Panics
    /// Panics if `racks == 0` or `racks > nodes`.
    pub fn contiguous(nodes: usize, racks: usize) -> RackMap {
        assert!(racks > 0, "need at least one rack");
        assert!(racks <= nodes, "more racks than nodes");
        let rack_of: Vec<usize> = (0..nodes).map(|n| n * racks / nodes).collect();
        let mut members = vec![Vec::new(); racks];
        for (n, &r) in rack_of.iter().enumerate() {
            members[r].push(n);
        }
        RackMap {
            rack_of,
            members,
            weights: vec![1; nodes],
        }
    }

    /// Replaces the per-node capacity weights (builder-style). Weights are
    /// relative: only ratios matter to [`Placement::CapacityWeighted`].
    ///
    /// # Panics
    /// Panics if `weights.len()` differs from the node count or any weight
    /// is zero.
    pub fn with_node_weights(mut self, weights: Vec<u64>) -> RackMap {
        assert_eq!(weights.len(), self.rack_of.len(), "one weight per node");
        assert!(weights.iter().all(|&w| w > 0), "weights must be positive");
        self.weights = weights;
        self
    }

    /// Node `node`'s capacity weight.
    pub fn weight_of(&self, node: usize) -> u64 {
        self.weights[node]
    }

    /// Number of OSD nodes.
    pub fn nodes(&self) -> usize {
        self.rack_of.len()
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.members.len()
    }

    /// The rack hosting `node`.
    pub fn rack_of(&self, node: usize) -> usize {
        self.rack_of[node]
    }

    /// The nodes in `rack`, ascending.
    pub fn members(&self, rack: usize) -> &[usize] {
        &self.members[rack]
    }

    /// The smallest rack's size.
    fn min_rack_size(&self) -> usize {
        self.members.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// A block-placement policy. Each is a pure function of
/// `(addr, code, racks)` — the layout caches nothing about it — and places
/// the `k + m` blocks of any one stripe on distinct nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Topology-blind hash rotation over all nodes — the pre-policy
    /// behaviour and the default. A stripe's blocks land on consecutive
    /// nodes of a per-stripe-rotated ring, so load spreads evenly; racks
    /// are ignored, so a rack failure can take out more than `m` blocks of
    /// one stripe.
    FlatRotate,
    /// Rack-fault-tolerant spread: consecutive blocks of a stripe
    /// round-robin across racks, rotating within each rack, so any one
    /// rack holds at most `⌈(k+m)/racks⌉` blocks of a stripe. Once
    /// `racks ≥ ⌈(k+m)/m⌉` that bound drops to `m`, so a whole-rack
    /// failure stays reconstructible.
    RackAware,
    /// Update-traffic-minimising placement: a stripe's `m` parity blocks
    /// share one rack (rotated per stripe), so parity-delta forwarding —
    /// the bulk of every logging method's background traffic — stays
    /// behind a single top-of-rack switch; data blocks round-robin over the
    /// remaining racks. The price is availability: losing the parity rack
    /// costs all `m` parity blocks of the stripes homed there.
    RackLocal,
    /// Capacity-weighted placement over a (possibly heterogeneous) fleet:
    /// each stripe samples its `k + m` nodes without replacement with
    /// probability proportional to the node's capacity weight
    /// ([`RackMap::weight_of`], filled from the [`crate::DiskFleet`] by
    /// [`crate::ClusterConfig::rack_map`]).
    ///
    /// The sampler is the exponential-clocks form of weighted sampling
    /// (Efraimidis–Spirakis): node `i` draws a deterministic per-stripe
    /// uniform `u_i` and is ranked by `-ln(u_i) / w_i`; the stripe takes
    /// the `k + m` smallest ranks. Big disks therefore absorb
    /// proportionally more stripes, keeping every disk's *fill fraction*
    /// (bytes placed / capacity) aligned instead of every disk's byte
    /// count.
    ///
    /// **Documented fill bound** ([`Placement::FILL_SPREAD_BOUND`]): for
    /// fleets with per-node weight ratios up to 4× and at least `2·(k+m)`
    /// nodes, the max/min per-disk fill ratio stays under the bound once
    /// enough stripes have been placed (the placement-bounds proptest pins
    /// this across random fleets). The bound is loose by design — sampling
    /// without replacement flattens extreme weights: a node cannot hold
    /// more than one block of any stripe, so a disk weighted above
    /// `W/(k+m)` of the total cannot be filled proportionally and the
    /// spread degrades toward the weight ratio as `k + m` approaches the
    /// node count.
    CapacityWeighted,
    /// Copyset placement: every stripe is confined to one of at most
    /// `budget` fixed node groups ("copysets") of `k + m` nodes, rotating
    /// blocks within the group. Fewer distinct co-location sets means a
    /// simultaneous multi-node failure is overwhelmingly likely to hit
    /// *zero* copysets in full — the blast radius caps at the stripes of
    /// the few copysets the victims intersect — at the price of less
    /// balanced rebuild fan-out.
    ///
    /// The number of distinct co-location sets an actual run produced is
    /// reported per replay as
    /// [`crate::replay::RunResult::copysets_used`] (a fault run can exceed
    /// the budget only through rebuild relocations, which re-home blocks
    /// onto arbitrary live nodes).
    Copyset {
        /// The most distinct copysets stripes may use. A zero budget is
        /// rejected by [`Placement::check`], so it surfaces as a
        /// [`crate::ConfigError`] at config validation, not as a panic.
        budget: usize,
    },
}

/// The per-stripe base hash every policy rotates from.
fn stripe_base(addr: BlockAddr) -> u64 {
    (addr.volume as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(addr.stripe.wrapping_mul(0xd1b54a32d192ed03))
}

/// A 64-bit mix of the stripe base and a node id (splitmix64 finaliser) —
/// the per-(stripe, node) uniform draw [`Placement::CapacityWeighted`]
/// keys its weighted sampling on.
fn node_hash(base: u64, node: usize) -> u64 {
    let mut z = base ^ (node as u64).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl Placement {
    /// Documented max/min fill-ratio bound of
    /// [`Placement::CapacityWeighted`] (see its docs for the fleet shapes
    /// it covers).
    pub const FILL_SPREAD_BOUND: f64 = 2.0;

    /// Display name (used in benches and tables).
    pub fn name(self) -> &'static str {
        match self {
            Placement::FlatRotate => "flat-rotate",
            Placement::RackAware => "rack-aware",
            Placement::RackLocal => "rack-local",
            Placement::CapacityWeighted => "capacity-weighted",
            Placement::Copyset { .. } => "copyset",
        }
    }

    /// The OSD hosting `addr`.
    pub fn node_of(self, addr: BlockAddr, code: CodeParams, racks: &RackMap) -> usize {
        match self {
            Placement::FlatRotate => {
                ((stripe_base(addr) as usize) + addr.index as usize) % racks.nodes()
            }
            Placement::RackAware => {
                let base = stripe_base(addr) as usize;
                let nr = racks.racks();
                let rack = (base + addr.index as usize) % nr;
                let members = racks.members(rack);
                // Blocks i and j land in the same rack iff i ≡ j (mod
                // racks), so rotating by i / racks keeps same-rack blocks
                // on distinct nodes as long as the per-rack block count
                // fits the rack (see `check`).
                let slot = (base / nr + addr.index as usize / nr) % members.len();
                members[slot]
            }
            Placement::RackLocal => {
                let base = stripe_base(addr) as usize;
                let nr = racks.racks();
                if nr == 1 {
                    // Degenerate single-rack case: plain rotation
                    // (≡ FlatRotate).
                    return (base + addr.index as usize) % racks.nodes();
                }
                let parity_rack = base % nr;
                let i = addr.index as usize;
                let k = code.k();
                if i >= k {
                    // Parity block p on the stripe's parity rack.
                    let members = racks.members(parity_rack);
                    let p = i - k;
                    return members[(base / nr + p) % members.len()];
                }
                // Data blocks round-robin over the other racks.
                let rack = (parity_rack + 1 + (base + i) % (nr - 1)) % nr;
                let members = racks.members(rack);
                // Data blocks i and j share a rack iff i ≡ j (mod racks - 1).
                let slot = (base / nr + i / (nr - 1)) % members.len();
                members[slot]
            }
            Placement::CapacityWeighted => {
                // The ranking depends only on the stripe, so the k+m calls
                // for one stripe recompute it; placement is a pure
                // function (no cache), and at fleet sizes (tens of nodes)
                // the sort is noise next to one simulated I/O.
                let base = stripe_base(addr);
                let n = racks.nodes();
                let mut ranked: Vec<(f64, usize)> = (0..n)
                    .map(|i| {
                        // Uniform in (0, 1]: take 53 high bits, map 0 to 1.
                        let h = node_hash(base, i);
                        let u = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                        let key = -u.ln() / racks.weight_of(i) as f64;
                        (key, i)
                    })
                    .collect();
                ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                ranked[addr.index as usize].1
            }
            Placement::Copyset { budget } => {
                let base = stripe_base(addr);
                let n = racks.nodes();
                let total = code.total();
                // The stripe's copyset: a run of `total` consecutive nodes
                // whose start is one of `budget` evenly spaced anchors.
                // `check` rejected budget 0 before any placement runs. The
                // anchor's product is taken in u128, so no budget overflows
                // it.
                let cs = (base % budget as u64) as usize;
                let start = (cs as u128 * n as u128 / budget as u128) as usize;
                // Rotate blocks within the set (per-stripe) so every member
                // takes each stripe role; the *set* of nodes stays the
                // copyset.
                let spin = (base / budget as u64) as usize;
                (start + (addr.index as usize + spin) % total) % n
            }
        }
    }

    /// Rejects shapes the policy cannot place: a zero copyset budget, fewer
    /// nodes than a stripe has blocks, or more blocks per rack than the
    /// smallest rack has nodes.
    pub fn check(self, code: CodeParams, racks: &RackMap) -> Result<(), String> {
        if matches!(self, Placement::Copyset { budget: 0 }) {
            return Err("copyset budget must be at least 1".to_string());
        }
        if racks.nodes() < code.total() {
            return Err(format!(
                "{} nodes cannot hold RS({},{}) stripes",
                racks.nodes(),
                code.k(),
                code.m()
            ));
        }
        let nr = racks.racks();
        let smallest = racks.min_rack_size();
        match self {
            Placement::RackAware => {
                let per_rack = code.total().div_ceil(nr);
                if per_rack > smallest {
                    return Err(format!(
                        "rack-aware placement needs {per_rack} slots per rack but the smallest rack has {smallest}"
                    ));
                }
            }
            Placement::RackLocal if nr > 1 => {
                if code.m() > smallest {
                    return Err(format!(
                        "rack-local placement co-racks {} parity blocks but the smallest rack has {smallest} nodes",
                        code.m()
                    ));
                }
                let data_per_rack = code.k().div_ceil(nr - 1);
                if data_per_rack > smallest {
                    return Err(format!(
                        "rack-local placement needs {data_per_rack} data slots per rack but the smallest rack has {smallest}"
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Placement::{CapacityWeighted, Copyset, FlatRotate, RackAware, RackLocal};

    /// The weight-blind topology trio.
    const TRIO: [Placement; 3] = [FlatRotate, RackAware, RackLocal];

    fn addr(volume: u32, stripe: u64, index: u16) -> BlockAddr {
        BlockAddr {
            volume,
            stripe,
            index,
        }
    }

    fn stripe_nodes(
        policy: Placement,
        code: CodeParams,
        racks: &RackMap,
        volume: u32,
        stripe: u64,
    ) -> Vec<usize> {
        (0..code.total() as u16)
            .map(|i| policy.node_of(addr(volume, stripe, i), code, racks))
            .collect()
    }

    fn assert_distinct(policy: Placement, code: CodeParams, racks: &RackMap) {
        for volume in 0..3u32 {
            for stripe in 0..200u64 {
                let nodes = stripe_nodes(policy, code, racks, volume, stripe);
                let mut sorted = nodes.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(
                    sorted.len(),
                    code.total(),
                    "{policy:?} vol {volume} stripe {stripe}: {nodes:?}"
                );
            }
        }
    }

    #[test]
    fn contiguous_rack_map_shapes() {
        let rm = RackMap::contiguous(16, 3);
        assert_eq!(rm.nodes(), 16);
        assert_eq!(rm.racks(), 3);
        assert_eq!(rm.min_rack_size(), 5);
        let total: usize = (0..3).map(|r| rm.members(r).len()).sum();
        assert_eq!(total, 16);
        for r in 0..3 {
            for &n in rm.members(r) {
                assert_eq!(rm.rack_of(n), r);
            }
        }
        // Contiguity: members are consecutive node ids.
        for r in 0..3 {
            let m = rm.members(r);
            for w in m.windows(2) {
                assert_eq!(w[1], w[0] + 1);
            }
        }
    }

    #[test]
    fn all_policies_place_stripes_on_distinct_nodes() {
        let code = CodeParams::new(6, 3).unwrap();
        for racks in [1usize, 2, 3, 4] {
            let rm = RackMap::contiguous(16, racks);
            for policy in TRIO {
                policy.check(code, &rm).unwrap();
                assert_distinct(policy, code, &rm);
            }
        }
    }

    #[test]
    fn resource_policies_place_stripes_on_distinct_nodes() {
        let code = CodeParams::new(6, 3).unwrap();
        let copysets = [1, 3, 7].map(|budget| Copyset { budget });
        for racks in [1usize, 2, 3, 4] {
            // Weighted, so capacity-weighted sampling sees a skewed fleet.
            let rm = RackMap::contiguous(16, racks)
                .with_node_weights((0..16).map(|n| 1 + n as u64 % 4).collect());
            for policy in [CapacityWeighted].into_iter().chain(copysets) {
                policy.check(code, &rm).unwrap();
                assert_distinct(policy, code, &rm);
            }
        }
    }

    #[test]
    fn copyset_anchor_does_not_overflow_at_the_largest_budget() {
        let code = CodeParams::new(6, 3).unwrap();
        let rm = RackMap::contiguous(16, 1);
        let policy = Copyset { budget: usize::MAX };
        policy.check(code, &rm).unwrap();
        assert_distinct(policy, code, &rm);
    }

    #[test]
    fn flat_rotate_matches_legacy_hash() {
        // The pre-policy Layout::node_of formula, verbatim.
        let legacy = |a: BlockAddr, nodes: usize| {
            let base = (a.volume as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(a.stripe.wrapping_mul(0xd1b54a32d192ed03));
            ((base as usize) + a.index as usize) % nodes
        };
        let code = CodeParams::new(6, 3).unwrap();
        let rm = RackMap::contiguous(16, 1);
        for volume in 0..4u32 {
            for stripe in 0..100u64 {
                for index in 0..9u16 {
                    let a = addr(volume, stripe, index);
                    assert_eq!(FlatRotate.node_of(a, code, &rm), legacy(a, 16));
                }
            }
        }
    }

    #[test]
    fn single_rack_policies_degenerate_to_flat_rotate() {
        let code = CodeParams::new(6, 3).unwrap();
        let rm = RackMap::contiguous(16, 1);
        for stripe in 0..50u64 {
            for index in 0..9u16 {
                let a = addr(1, stripe, index);
                let flat = FlatRotate.node_of(a, code, &rm);
                assert_eq!(RackAware.node_of(a, code, &rm), flat);
                assert_eq!(RackLocal.node_of(a, code, &rm), flat);
            }
        }
    }

    #[test]
    fn rack_aware_bounds_blocks_per_rack() {
        let code = CodeParams::new(6, 3).unwrap();
        let rm = RackMap::contiguous(16, 4);
        let cap = code.total().div_ceil(4); // 3
        for stripe in 0..200u64 {
            let nodes = stripe_nodes(RackAware, code, &rm, 0, stripe);
            let mut per_rack = vec![0usize; 4];
            for n in nodes {
                per_rack[rm.rack_of(n)] += 1;
            }
            assert!(
                per_rack.iter().all(|&c| c <= cap),
                "stripe {stripe}: {per_rack:?}"
            );
            // ≤ m blocks per rack here, so any single rack loss is
            // reconstructible from the surviving k.
            assert!(per_rack.iter().all(|&c| c <= code.m()));
        }
    }

    #[test]
    fn rack_local_co_racks_parity_and_rotates_racks() {
        let code = CodeParams::new(6, 3).unwrap();
        let rm = RackMap::contiguous(16, 4);
        let mut parity_racks_seen = std::collections::HashSet::new();
        for stripe in 0..100u64 {
            let nodes = stripe_nodes(RackLocal, code, &rm, 0, stripe);
            let parity_racks: Vec<usize> =
                nodes[code.k()..].iter().map(|&n| rm.rack_of(n)).collect();
            assert!(
                parity_racks.iter().all(|&r| r == parity_racks[0]),
                "stripe {stripe}: parity split across racks {parity_racks:?}"
            );
            parity_racks_seen.insert(parity_racks[0]);
            // Data never shares the parity rack (racks > 1).
            for &n in &nodes[..code.k()] {
                assert_ne!(rm.rack_of(n), parity_racks[0], "stripe {stripe}");
            }
        }
        assert!(
            parity_racks_seen.len() > 1,
            "parity rack must rotate across stripes"
        );
    }

    #[test]
    fn checks_reject_infeasible_shapes() {
        let code = CodeParams::new(12, 4).unwrap();
        // 16 nodes in 8 racks of 2: rack-aware wants ceil(16/8) = 2 ≤ 2, ok;
        // rack-local wants 4 parity slots in one rack — impossible.
        let rm = RackMap::contiguous(16, 8);
        assert!(RackAware.check(code, &rm).is_ok());
        assert!(RackLocal.check(code, &rm).is_err());
        // Too few nodes is rejected by every policy.
        let tiny = RackMap::contiguous(8, 2);
        for policy in TRIO {
            assert!(policy.check(code, &tiny).is_err());
        }
    }

    #[test]
    fn policy_names_are_report_keys() {
        let names = [
            FlatRotate,
            RackAware,
            RackLocal,
            CapacityWeighted,
            Copyset { budget: 4 },
        ]
        .map(Placement::name);
        assert_eq!(
            names,
            [
                "flat-rotate",
                "rack-aware",
                "rack-local",
                "capacity-weighted",
                "copyset"
            ]
        );
    }

    #[test]
    fn capacity_weighted_favours_heavy_nodes() {
        let code = CodeParams::new(4, 2).unwrap();
        // Node 0 carries 4x the capacity of everyone else.
        let mut weights = vec![1u64; 16];
        weights[0] = 4;
        let rm = RackMap::contiguous(16, 1).with_node_weights(weights);
        let mut heavy = 0usize;
        let mut light = [0usize; 15];
        let stripes = 600u64;
        for stripe in 0..stripes {
            for n in stripe_nodes(CapacityWeighted, code, &rm, 0, stripe) {
                if n == 0 {
                    heavy += 1;
                } else {
                    light[n - 1] += 1;
                }
            }
        }
        let light_mean = light.iter().sum::<usize>() as f64 / 15.0;
        assert!(
            heavy as f64 > 2.0 * light_mean,
            "4x-capacity node got {heavy} blocks vs light mean {light_mean:.0}"
        );
        // Fill fraction (blocks per unit weight) stays aligned.
        let fill_heavy = heavy as f64 / 4.0;
        assert!(
            (fill_heavy / light_mean) < Placement::FILL_SPREAD_BOUND
                && (light_mean / fill_heavy) < Placement::FILL_SPREAD_BOUND,
            "fill skewed: heavy {fill_heavy:.0} vs light {light_mean:.0}"
        );
    }

    #[test]
    fn copyset_confines_stripes_to_budget_sets() {
        let code = CodeParams::new(6, 3).unwrap();
        let rm = RackMap::contiguous(16, 1);
        for budget in [1usize, 2, 4, 6] {
            let policy = Copyset { budget };
            policy.check(code, &rm).unwrap();
            let mut sets = std::collections::HashSet::new();
            for stripe in 0..300u64 {
                let mut nodes = stripe_nodes(policy, code, &rm, 0, stripe);
                nodes.sort_unstable();
                sets.insert(nodes);
            }
            assert!(
                sets.len() <= budget,
                "budget {budget}: {} distinct copysets",
                sets.len()
            );
            // The budget is actually used (placement is not degenerate).
            if budget <= 4 {
                assert_eq!(sets.len(), budget, "budget {budget} under-used");
            }
        }
    }

    #[test]
    fn copyset_rejects_zero_budget_and_tiny_clusters() {
        let code = CodeParams::new(12, 4).unwrap();
        let rm = RackMap::contiguous(8, 1);
        // The budget is a plain field; the zero budget is rejected
        // fallibly at check time, so config validation reports it as a
        // ConfigError.
        assert!(Copyset { budget: 0 }
            .check(code, &RackMap::contiguous(16, 1))
            .is_err());
        assert!(Copyset { budget: 3 }.check(code, &rm).is_err());
    }

    #[test]
    fn zero_copyset_budget_is_a_config_error_not_a_panic() {
        let err = crate::ClusterConfig::builder()
            .code(CodeParams::new(6, 3).unwrap())
            .method(crate::methods::Method::Tsue)
            .placement(Copyset { budget: 0 })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
    }

    #[test]
    fn uniform_weights_leave_topology_policies_untouched() {
        // with_node_weights(all-1) is the default: the weight-blind trio
        // must be bit-identical either way.
        let code = CodeParams::new(6, 3).unwrap();
        let plain = RackMap::contiguous(16, 4);
        let weighted = RackMap::contiguous(16, 4).with_node_weights(vec![1; 16]);
        assert_eq!(plain, weighted);
        for policy in TRIO {
            for stripe in 0..50u64 {
                for index in 0..9u16 {
                    let a = addr(0, stripe, index);
                    assert_eq!(
                        policy.node_of(a, code, &plain),
                        policy.node_of(a, code, &weighted)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one weight per node")]
    fn mis_sized_weights_rejected() {
        let _ = RackMap::contiguous(8, 1).with_node_weights(vec![1; 4]);
    }
}
