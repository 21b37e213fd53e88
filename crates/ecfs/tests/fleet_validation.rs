//! DiskFleet builder-validation suite: mis-shaped fleets must be rejected
//! at config-build time with the reason, and well-formed fleets must reach
//! the cluster as per-node devices.

use ecfs::prelude::*;
use simdisk::Disk;

fn builder() -> ClusterConfigBuilder {
    ClusterConfig::builder()
        .code(CodeParams::new(6, 3).unwrap())
        .method(Method::Tsue)
}

#[test]
fn tiered_count_mismatch_rejected_at_build() {
    let err = builder()
        .fleet(DiskFleet::tiered(8, 4))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("the cluster has 16"), "{err}");
    // Matching counts build fine, on either side of the node count.
    assert!(builder().fleet(DiskFleet::tiered(8, 8)).build().is_ok());
    assert!(builder()
        .nodes(12)
        .fleet(DiskFleet::tiered(4, 8))
        .build()
        .is_ok());
    // All-SSD / all-HDD degenerate tiers are allowed.
    assert!(builder().fleet(DiskFleet::tiered(16, 0)).build().is_ok());
    assert!(builder().fleet(DiskFleet::tiered(0, 16)).build().is_ok());
}

#[test]
fn explicit_fleet_must_cover_every_node() {
    let short = DiskFleet::explicit(vec![DiskProfile::ssd(); 15]);
    let err = builder().fleet(short).build().unwrap_err();
    assert!(err.to_string().contains("15"), "{err}");
    let exact = DiskFleet::explicit(vec![DiskProfile::ssd(); 16]);
    assert!(builder().fleet(exact).build().is_ok());
}

#[test]
fn zero_capacity_node_rejected_at_build() {
    let mut profiles = vec![DiskProfile::ssd(); 16];
    profiles[3] = DiskProfile::ssd().with_capacity_mult(0.0);
    let err = builder()
        .fleet(DiskFleet::explicit(profiles))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("node 3"), "{err}");
}

#[test]
fn degenerate_multipliers_rejected_at_build() {
    for bad in [f64::NAN, f64::INFINITY, -2.0, 0.0] {
        let mut profiles = vec![DiskProfile::hdd(); 16];
        profiles[0] = DiskProfile::hdd().with_capacity_mult(bad);
        assert!(
            builder()
                .fleet(DiskFleet::explicit(profiles))
                .build()
                .is_err(),
            "capacity_mult {bad} must be rejected"
        );
    }
}

#[test]
fn replay_validation_covers_the_fleet() {
    // The fleet check also runs through ReplayConfig::validate, so a bad
    // fleet cannot reach a replay.
    let mut cluster = ClusterConfig::ssd_testbed(CodeParams::new(6, 3).unwrap(), Method::Fo);
    cluster.fleet = DiskFleet::tiered(2, 2);
    let rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    assert!(rcfg.validate().is_err());
}

#[test]
fn hdd_testbed_routes_through_uniform_hdd() {
    // Exactly one way to say "all-HDD": the testbed constructor and the
    // canonical constructor must agree on every node's device.
    let cfg = ClusterConfig::hdd_testbed(CodeParams::new(6, 4).unwrap(), Method::Pl);
    let canonical = DiskFleet::uniform_hdd();
    assert_eq!(cfg.fleet.name(), canonical.name());
    for n in 0..cfg.nodes {
        assert!(!cfg.fleet.is_ssd(n));
        assert_eq!(cfg.fleet.capacity_of(n), canonical.capacity_of(n));
    }
}

#[test]
fn cluster_builds_one_device_per_node() {
    let cfg = builder().fleet(DiskFleet::tiered(8, 8)).build().unwrap();
    let cl = Cluster::new(cfg);
    for (n, osd) in cl.nodes.iter().enumerate() {
        match &osd.disk {
            Disk::Ssd(_) => assert!(n < 8, "node {n} should be spinning"),
            Disk::Hdd(_) => assert!(n >= 8, "node {n} should be flash"),
        }
    }
}

#[test]
fn fleet_capacities_reach_placement_weights() {
    let mut profiles = vec![DiskProfile::ssd(); 16];
    profiles[0] = DiskProfile::ssd().with_capacity_mult(0.25);
    let cfg = builder()
        .fleet(DiskFleet::explicit(profiles))
        .build()
        .unwrap();
    let rm = cfg.rack_map();
    assert_eq!(rm.weight_of(0) * 4, rm.weight_of(1));
    // Uniform fleets carry equal weights (the pre-fleet behaviour).
    let uniform = builder().build().unwrap();
    let urm = uniform.rack_map();
    assert!((0..16).all(|n| urm.weight_of(n) == urm.weight_of(0)));
}
