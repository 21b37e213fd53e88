//! Per-node disk fleets: the device population behind the OSDs.
//!
//! A [`DiskFleet`] describes the whole population, one [`DiskKind`] device
//! model per node, so the heterogeneous scenarios the paper hints at (§5.4
//! runs an all-HDD cluster; Koh et al. show online EC behaves qualitatively
//! differently on mixed flash/HDD arrays) are reachable:
//!
//! * [`DiskFleet::Uniform`] — every node carries the same device. This is
//!   the default (the topology/fault/open-loop goldens pin it).
//! * [`DiskFleet::Tiered`] — the first `ssd_nodes` nodes carry flash, the
//!   remaining `hdd_nodes` carry spinning disks: the classic mixed fleet a
//!   partial hardware refresh leaves behind.
//! * [`DiskFleet::Explicit`] — one [`DiskProfile`] per node, each a base
//!   device scaled by a capacity multiplier: arbitrary per-generation
//!   skew ("rack 3 got the 4 TB drives"). A different media rate is a
//!   different base config.
//!
//! [`crate::Cluster::new`] builds one device *per node* from the fleet, so
//! every disk booking — foreground I/O, log recycling, and crucially the
//! repair pump's rebuilt-block writes — runs at the *target* node's own
//! device rate, and capacity-aware machinery (the log-region allocator,
//! [`crate::placement::CapacityWeighted`] via [`RackMap`] node weights)
//! sees each node's true capacity.
//!
//! [`RackMap`]: crate::placement::RackMap

use simdisk::{Disk, Hdd, HddConfig, Ssd, SsdConfig};

use crate::config::DiskKind;

/// One node's device: a base model scaled by a capacity multiplier (a
/// cheap way to express drive sizes without hand-writing full configs).
#[derive(Debug, Clone)]
pub struct DiskProfile {
    /// The base device model.
    pub kind: DiskKind,
    /// Capacity scale factor (1.0 = the base config's capacity).
    pub capacity_mult: f64,
}

impl DiskProfile {
    /// A profile of the base device, unscaled.
    pub fn new(kind: DiskKind) -> DiskProfile {
        DiskProfile {
            kind,
            capacity_mult: 1.0,
        }
    }

    /// Default SSD, unscaled.
    pub fn ssd() -> DiskProfile {
        DiskProfile::new(DiskKind::Ssd(SsdConfig::default()))
    }

    /// Default HDD, unscaled.
    pub fn hdd() -> DiskProfile {
        DiskProfile::new(DiskKind::Hdd(HddConfig::default()))
    }

    /// Sets the capacity multiplier (builder-style).
    pub fn with_capacity_mult(mut self, mult: f64) -> DiskProfile {
        self.capacity_mult = mult;
        self
    }

    /// The concrete (scaled) device model this profile builds.
    pub fn device(&self) -> DiskKind {
        match &self.kind {
            DiskKind::Ssd(c) => {
                let mut c = c.clone();
                c.capacity = scale_to(c.capacity, self.capacity_mult, c.page_size);
                DiskKind::Ssd(c)
            }
            DiskKind::Hdd(c) => {
                let mut c = c.clone();
                c.capacity = scale_to(c.capacity, self.capacity_mult, 4096);
                DiskKind::Hdd(c)
            }
        }
    }

    /// The scaled capacity in bytes.
    pub fn capacity(&self) -> u64 {
        match self.device() {
            DiskKind::Ssd(c) => c.capacity,
            DiskKind::Hdd(c) => c.capacity,
        }
    }

    fn validate(&self, node: usize) -> Result<(), String> {
        let mult = self.capacity_mult;
        if !mult.is_finite() || mult <= 0.0 {
            return Err(format!(
                "node {node}: capacity_mult = {mult} must be a finite positive factor"
            ));
        }
        match self.device() {
            DiskKind::Ssd(c) => {
                // The FTL's geometry: enough erase blocks and spare area
                // for GC always to find a victim.
                c.validate().map_err(|e| format!("node {node}: {e}"))?;
                if c.read_bandwidth == 0 || c.write_bandwidth == 0 {
                    return Err(format!("node {node}: SSD bandwidth is zero"));
                }
            }
            DiskKind::Hdd(c) => {
                if c.capacity < 4096 {
                    return Err(format!(
                        "node {node}: scaled HDD capacity {} is below one 4 KiB sector group",
                        c.capacity
                    ));
                }
                if c.transfer_bandwidth == 0 {
                    return Err(format!("node {node}: HDD bandwidth is zero"));
                }
            }
        }
        Ok(())
    }
}

/// Multiplies `base` by `mult`, rounding down to a multiple of `quantum`
/// (identity when `mult == 1.0`, so uniform fleets stay byte-exact).
fn scale_to(base: u64, mult: f64, quantum: u64) -> u64 {
    if mult == 1.0 {
        return base;
    }
    let scaled = (base as f64 * mult) as u64;
    scaled / quantum * quantum
}

/// The disk population of the cluster, one device per OSD node.
#[derive(Debug, Clone)]
pub enum DiskFleet {
    /// Every node carries the same device (the default; byte-for-byte the
    /// pre-fleet behaviour).
    Uniform(DiskKind),
    /// The first `ssd_nodes` nodes carry `ssd`, the remaining `hdd_nodes`
    /// carry `hdd`. `ssd_nodes + hdd_nodes` must equal the cluster's node
    /// count.
    Tiered {
        /// Nodes carrying the flash tier (node ids `0..ssd_nodes`).
        ssd_nodes: usize,
        /// Nodes carrying the spinning tier (node ids `ssd_nodes..`).
        hdd_nodes: usize,
        /// The flash device model.
        ssd: SsdConfig,
        /// The spinning device model.
        hdd: HddConfig,
    },
    /// One explicit profile per node (`len()` must equal the node count).
    Explicit(Vec<DiskProfile>),
}

impl DiskFleet {
    /// Every node carries `kind`.
    pub fn uniform(kind: DiskKind) -> DiskFleet {
        DiskFleet::Uniform(kind)
    }

    /// Every node carries the default SSD (the paper's primary testbed).
    pub fn uniform_ssd() -> DiskFleet {
        DiskFleet::Uniform(DiskKind::Ssd(SsdConfig::default()))
    }

    /// Every node carries the default HDD (the §5.4 cluster). The one way
    /// to say "all-HDD": [`crate::ClusterConfig::hdd_testbed`] and the
    /// Fig. 8 benches all route through here.
    pub fn uniform_hdd() -> DiskFleet {
        DiskFleet::Uniform(DiskKind::Hdd(HddConfig::default()))
    }

    /// A mixed fleet of default devices: `ssd_nodes` flash nodes followed
    /// by `hdd_nodes` spinning nodes.
    pub fn tiered(ssd_nodes: usize, hdd_nodes: usize) -> DiskFleet {
        DiskFleet::Tiered {
            ssd_nodes,
            hdd_nodes,
            ssd: SsdConfig::default(),
            hdd: HddConfig::default(),
        }
    }

    /// One explicit profile per node.
    pub fn explicit(profiles: Vec<DiskProfile>) -> DiskFleet {
        DiskFleet::Explicit(profiles)
    }

    /// Short display label for bench tables ("uniform-ssd",
    /// "tiered-8s+8h", "explicit-16").
    pub fn name(&self) -> String {
        match self {
            DiskFleet::Uniform(DiskKind::Ssd(_)) => "uniform-ssd".to_string(),
            DiskFleet::Uniform(DiskKind::Hdd(_)) => "uniform-hdd".to_string(),
            DiskFleet::Tiered {
                ssd_nodes,
                hdd_nodes,
                ..
            } => format!("tiered-{ssd_nodes}s+{hdd_nodes}h"),
            DiskFleet::Explicit(profiles) => format!("explicit-{}", profiles.len()),
        }
    }

    /// The (scaled) device model node `node` carries.
    ///
    /// # Panics
    /// Panics when `node` is outside the fleet (validation rejects
    /// mis-sized fleets before any cluster is built).
    pub fn kind_of(&self, node: usize) -> DiskKind {
        match self {
            DiskFleet::Uniform(kind) => kind.clone(),
            DiskFleet::Tiered {
                ssd_nodes,
                hdd_nodes,
                ssd,
                hdd,
            } => {
                assert!(node < ssd_nodes + hdd_nodes, "node outside the fleet");
                if node < *ssd_nodes {
                    DiskKind::Ssd(ssd.clone())
                } else {
                    DiskKind::Hdd(hdd.clone())
                }
            }
            DiskFleet::Explicit(profiles) => profiles[node].device(),
        }
    }

    /// Whether node `node` carries flash.
    pub fn is_ssd(&self, node: usize) -> bool {
        matches!(self.kind_of(node), DiskKind::Ssd(_))
    }

    /// Node `node`'s capacity in bytes.
    pub fn capacity_of(&self, node: usize) -> u64 {
        match self.kind_of(node) {
            DiskKind::Ssd(c) => c.capacity,
            DiskKind::Hdd(c) => c.capacity,
        }
    }

    /// Builds node `node`'s device instance.
    pub fn build_disk(&self, node: usize) -> Disk {
        match self.kind_of(node) {
            DiskKind::Ssd(c) => Disk::Ssd(Ssd::new(c)),
            DiskKind::Hdd(c) => Disk::Hdd(Hdd::new(c)),
        }
    }

    /// Validates the fleet against the cluster's node count.
    pub fn validate(&self, nodes: usize) -> Result<(), String> {
        match self {
            DiskFleet::Uniform(kind) => DiskProfile::new(kind.clone()).validate(0),
            DiskFleet::Tiered {
                ssd_nodes,
                hdd_nodes,
                ssd,
                hdd,
            } => {
                if ssd_nodes + hdd_nodes != nodes {
                    return Err(format!(
                        "tiered fleet covers {ssd_nodes} SSD + {hdd_nodes} HDD nodes \
                         but the cluster has {nodes}"
                    ));
                }
                DiskProfile::new(DiskKind::Ssd(ssd.clone())).validate(0)?;
                DiskProfile::new(DiskKind::Hdd(hdd.clone())).validate(*ssd_nodes)
            }
            DiskFleet::Explicit(profiles) => {
                if profiles.len() != nodes {
                    return Err(format!(
                        "explicit fleet describes {} nodes but the cluster has {nodes}",
                        profiles.len()
                    ));
                }
                for (node, p) in profiles.iter().enumerate() {
                    p.validate(node)?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builds_identical_devices() {
        let fleet = DiskFleet::uniform_ssd();
        assert!(fleet.validate(16).is_ok());
        assert_eq!(fleet.name(), "uniform-ssd");
        let base = SsdConfig::default().capacity;
        for n in [0usize, 7, 15] {
            assert!(fleet.is_ssd(n));
            assert_eq!(fleet.capacity_of(n), base);
            assert_eq!(fleet.build_disk(n).capacity(), base);
        }
        assert_eq!(DiskFleet::uniform_hdd().name(), "uniform-hdd");
    }

    #[test]
    fn tiered_splits_by_node_id() {
        let fleet = DiskFleet::tiered(3, 5);
        assert!(fleet.validate(8).is_ok());
        assert_eq!(fleet.name(), "tiered-3s+5h");
        for n in 0..3 {
            assert!(fleet.is_ssd(n), "node {n}");
        }
        for n in 3..8 {
            assert!(!fleet.is_ssd(n), "node {n}");
            assert!(matches!(fleet.build_disk(n), Disk::Hdd(_)));
        }
    }

    #[test]
    fn tiered_count_mismatch_rejected() {
        let err = DiskFleet::tiered(8, 8).validate(12).unwrap_err();
        assert!(err.contains("12"), "{err}");
    }

    #[test]
    fn explicit_profiles_scale_capacity() {
        let fleet = DiskFleet::explicit(vec![
            DiskProfile::ssd().with_capacity_mult(0.25),
            DiskProfile::ssd(),
            DiskProfile::hdd(),
        ]);
        assert!(fleet.validate(3).is_ok());
        assert_eq!(fleet.name(), "explicit-3");
        let base = SsdConfig::default();
        assert_eq!(fleet.capacity_of(0), base.capacity / 4);
        assert_eq!(fleet.capacity_of(1), base.capacity);
        // A smaller drive of the same model keeps the model's media rates.
        match fleet.kind_of(0) {
            DiskKind::Ssd(c) => {
                assert_eq!(c.read_bandwidth, base.read_bandwidth);
                assert_eq!(c.write_bandwidth, base.write_bandwidth);
            }
            DiskKind::Hdd(_) => panic!("node 0 must be flash"),
        }
        assert_eq!(fleet.capacity_of(2), HddConfig::default().capacity);
    }

    #[test]
    fn explicit_wrong_length_rejected() {
        let fleet = DiskFleet::explicit(vec![DiskProfile::ssd(); 4]);
        assert!(fleet.validate(5).is_err());
    }

    #[test]
    fn degenerate_profiles_rejected() {
        // Zero capacity.
        let zero = DiskFleet::explicit(vec![DiskProfile::ssd().with_capacity_mult(0.0)]);
        assert!(zero.validate(1).is_err());
        // Capacity below the FTL's four erase blocks.
        let tiny = DiskFleet::explicit(vec![DiskProfile::ssd().with_capacity_mult(1e-7)]);
        assert!(tiny.validate(1).is_err());
        // Non-finite and negative multipliers.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let f = DiskFleet::explicit(vec![DiskProfile::hdd().with_capacity_mult(bad)]);
            assert!(f.validate(1).is_err(), "mult {bad} must be rejected");
        }
    }

    #[test]
    fn unit_multiplier_is_byte_exact() {
        // `1.0` must not round-trip through floats: uniform fleets pin
        // golden replays.
        let p = DiskProfile::ssd();
        match (p.device(), &p.kind) {
            (DiskKind::Ssd(scaled), DiskKind::Ssd(base)) => {
                assert_eq!(scaled.capacity, base.capacity);
                assert_eq!(scaled.read_bandwidth, base.read_bandwidth);
                assert_eq!(scaled.write_bandwidth, base.write_bandwidth);
            }
            _ => panic!("profile changed device flavour"),
        }
    }
}
