//! Heterogeneous-fleet integration tests: capacity-weighted placement
//! measurably shifts load off a small disk (pinned), tiered fleets build
//! mixed device populations whose recovery runs at the *target* disk's
//! rate, and the fleet-resource metrics surface through `RunResult`.

use ecfs::prelude::*;
use ecfs::recovery::recover_node;

/// A 16-node all-flash fleet whose node 0 carries a quarter-size drive.
fn skewed_fleet() -> DiskFleet {
    DiskFleet::explicit(
        (0..16)
            .map(|n| {
                if n == 0 {
                    DiskProfile::ssd().with_capacity_mult(0.25)
                } else {
                    DiskProfile::ssd()
                }
            })
            .collect(),
    )
}

fn skewed_replay(placement: Placement) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, Method::Tsue);
    cluster.clients = 6;
    cluster.fleet = skewed_fleet();
    cluster.placement = placement;
    // 1 MiB blocks over a 48 MiB volume: enough stripes for stable
    // placement statistics in a short run.
    cluster.block_bytes = 1 << 20;
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = 200;
    r.volume_bytes = 48 << 20;
    r
}

/// The pinned placement-shift test: on a fleet whose node 0 has a quarter
/// of everyone's capacity, `FlatRotate` keeps filling node 0 like any
/// other node (it is capacity-blind), while `CapacityWeighted` shifts
/// stripes away from it.
#[test]
fn capacity_weighted_shifts_placement_off_the_small_disk() {
    let (_, flat) = run_update_phase(&skewed_replay(Placement::FlatRotate));
    let (_, capw) = run_update_phase(&skewed_replay(Placement::CapacityWeighted));

    let allocated = |cl: &Cluster| -> (u64, f64) {
        let on_small = cl.layout.allocated(0);
        let rest_mean = (1..16).map(|n| cl.layout.allocated(n)).sum::<u64>() as f64 / 15.0;
        (on_small, rest_mean)
    };
    let (flat_small, flat_rest) = allocated(&flat);
    let (capw_small, capw_rest) = allocated(&capw);

    // FlatRotate does not shift: the small disk carries its even share
    // (within 2x of the big-disk mean — hash-rotation noise only).
    assert!(
        (flat_small as f64) > flat_rest / 2.0 && (flat_small as f64) < flat_rest * 2.0,
        "flat-rotate should be capacity-blind: node 0 holds {flat_small} B vs mean {flat_rest:.0} B"
    );
    // CapacityWeighted shifts: the small disk holds less than half of what
    // flat rotation put there, and less than half the big-disk mean.
    assert!(
        capw_small * 2 < flat_small,
        "capacity weighting must shift bytes off the small disk: {capw_small} vs {flat_small}"
    );
    assert!(
        (capw_small as f64) < capw_rest / 2.0,
        "small disk must hold under half the big-disk mean: {capw_small} vs {capw_rest:.0}"
    );

    // Pinned golden: placement (and the workload feeding it) is fully
    // deterministic, so the flat allocation on the small disk is exact.
    assert_eq!(
        flat_small, PINNED_FLAT_SMALL_BYTES,
        "flat-rotate allocation on node 0 drifted"
    );
    // The *fill fraction* story the policy exists for: flat overfills the
    // quarter-size disk ~4x relative to the fleet, capacity weighting
    // brings the worst disk back near the mean.
    let cap0 = flat.nodes[0].disk.capacity() as f64;
    let cap_rest = flat.nodes[1].disk.capacity() as f64;
    let flat_fill_ratio = (flat_small as f64 / cap0) / (flat_rest / cap_rest);
    let capw_fill_ratio = (capw_small as f64 / cap0) / (capw_rest / cap_rest);
    assert!(
        flat_fill_ratio > 2.0,
        "flat must overfill the small disk: ratio {flat_fill_ratio:.2}"
    );
    assert!(
        capw_fill_ratio < Placement::FILL_SPREAD_BOUND,
        "capacity weighting must keep the small disk near the fleet fill: \
         ratio {capw_fill_ratio:.2}"
    );
}

/// Golden: bytes `FlatRotate` allocates on the quarter-size node 0 in the
/// skewed-fleet replay above (10 one-MiB blocks) — placement and workload
/// are deterministic, so any drift means the default placement or the
/// workload generator changed.
const PINNED_FLAT_SMALL_BYTES: u64 = 10 << 20;

/// On a tiered fleet the cluster builds mixed devices, and recovery
/// bandwidth reflects the *target* disks: an all-flash rebuild beats one
/// whose survivors and targets include spindles.
#[test]
fn recovery_runs_at_target_disk_rates() {
    let drill = |fleet: DiskFleet| {
        let code = CodeParams::new(6, 3).unwrap();
        let mut cluster = ClusterConfig::ssd_testbed(code, Method::Tsue);
        cluster.clients = 4;
        cluster.fleet = fleet;
        let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
        r.ops_per_client = 120;
        r.volume_bytes = 32 << 20;
        let (mut sim, mut cl) = run_update_phase(&r);
        recover_node(&mut sim, &mut cl, 3).bandwidth_mib_s
    };
    let ssd = drill(DiskFleet::uniform_ssd());
    let hdd = drill(DiskFleet::uniform_hdd());
    let tiered = drill(DiskFleet::tiered(8, 8));
    assert!(
        ssd > 2.0 * hdd,
        "all-flash recovery ({ssd:.0} MiB/s) must beat all-HDD ({hdd:.0} MiB/s)"
    );
    assert!(
        tiered < ssd,
        "mixed-fleet recovery ({tiered:.0} MiB/s) must trail all-flash ({ssd:.0} MiB/s): \
         some survivors/targets are spindles"
    );
}

/// The fleet-resource metrics surface through `RunResult` on every run.
#[test]
fn run_result_reports_fill_wear_and_copysets() {
    let r = Replay::run(&skewed_replay(Placement::FlatRotate)).result;
    assert_eq!(r.oracle_violations, 0);
    assert!(r.disk_fill_max >= r.disk_fill_min && r.disk_fill_min > 0.0);
    assert!(r.disk_fill_max < 1.0, "nothing overflows in a short run");
    assert!(r.wear_max_bytes > 0, "updates must wear the devices");
    assert!(r.wear_spread >= 1.0, "max wear cannot undercut the mean");
    assert_eq!(
        r.disk.wear_bytes, r.wear_max_bytes,
        "merged stats carry the fleet wear high-water"
    );
    assert!(r.copysets_used > 0);

    // A copyset policy bounds the co-location sets end to end.
    let budget = 5;
    let copy = Replay::run(&skewed_replay(Placement::Copyset { budget })).result;
    assert_eq!(copy.oracle_violations, 0);
    assert!(
        copy.copysets_used <= budget,
        "{} sets exceed the budget {budget}",
        copy.copysets_used
    );
}

/// A mid-replay fault on a tiered fleet stays consistent and recovers —
/// the degraded paths and repair pump work against mixed devices.
#[test]
fn tiered_fleet_survives_mid_replay_fault() {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, Method::Tsue);
    cluster.clients = 4;
    cluster.fleet = DiskFleet::tiered(8, 8);
    cluster.tsue_unit_bytes = 1 << 20;
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = 120;
    r.volume_bytes = 32 << 20;
    // Fail one flash node and one spinning node mid-replay.
    r.faults = FaultPlan::new()
        .fail_node(20 * simdes::units::MILLIS, 2)
        .fail_node(30 * simdes::units::MILLIS, 12);
    let res = Replay::run(&r).result;
    assert_eq!(res.oracle_violations, 0);
    assert_eq!(res.data_loss_blocks, 0);
    assert!(res.repaired_blocks + res.inline_rebuilds > 0);
    assert!(res.mttr_s > 0.0 && res.mttr_s.is_finite());
}
