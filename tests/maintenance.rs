//! Maintenance-subsystem integration tests: the empty-plan byte-for-byte
//! guarantee, scrub/LSE detection and repair, wear-leveling rebalance,
//! and parallel-grid determinism with non-empty plans (the full plan on
//! a tiered fleet among them) — mirroring the fault-plan precedent in
//! `tests/fault_timeline.rs`.

use ecfs::prelude::*;

fn replay(method: Method, clients: u64, ops: usize) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = clients;
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = ops;
    r.volume_bytes = 32 << 20;
    r
}

fn tiered_replay(method: Method, clients: u64, ops: usize) -> ReplayConfig {
    let mut r = replay(method, clients, ops);
    r.cluster.fleet = DiskFleet::tiered(8, 8);
    r
}

/// A scrub fast enough to sweep every placed block several times within
/// the default 80 ms maintenance horizon at this scale.
fn fast_scrub() -> ScrubConfig {
    ScrubConfig {
        bytes_per_sec: 8 << 30,
    }
}

/// LSE sites concentrated in the first 8 MiB of each device — under the
/// blocks the layout places first, so a scrub sweep must reach them.
fn dense_lse() -> LseConfig {
    LseConfig {
        per_device: 4,
        span_bytes: 8 << 20,
    }
}

/// The empty plan must be byte-for-byte the maintenance-free replay: the
/// exact pre-maintenance goldens from `tests/topology.rs` must reproduce
/// with `MaintenancePlan::default()` explicitly attached, and every
/// maintenance counter must stay zero. Any drift here means an "empty"
/// plan armed something.
#[test]
fn empty_plan_reproduces_maintenance_free_golden() {
    let mut rcfg = replay(Method::Tsue, 4, 250);
    rcfg.maintenance = MaintenancePlan::default();
    assert!(rcfg.maintenance.is_empty());
    rcfg.validate().expect("empty plan validates");

    let r = Replay::run(&rcfg).result;
    assert_eq!(r.completed_updates, 768);
    assert_eq!(r.completed_reads, 157);
    assert_eq!(r.completed_writes, 75);
    let net_bytes = (r.net_gib * (1u64 << 30) as f64).round() as u64;
    assert_eq!(net_bytes, 132_512_832, "net bytes drifted");
    assert_eq!(r.net_msgs, 3_466, "message count drifted");
    assert_eq!(r.disk.rw_ops(), 3_688, "disk ops drifted");
    let duration_ns = (r.duration_s * 1e9).round() as u64;
    assert_eq!(duration_ns, 93_204_202, "timing drifted");
    assert_eq!(r.oracle_violations, 0);

    // No policy armed: every maintenance counter is exactly zero.
    assert_eq!(r.scrub_gib, 0.0);
    assert_eq!(r.lse_injected, 0);
    assert_eq!(r.lse_found, 0);
    assert_eq!(r.lse_repaired, 0);
    assert_eq!(r.maint_migrated_gib, 0.0);
    assert_eq!(r.wear_spread_before, 0.0);
    assert_eq!(r.maint_busy_p99_us, 0.0);
    assert_eq!(r.maint_idle_p99_us, 0.0);
}

/// Scrubbing must find latent sector errors before anything else does and
/// repair them through the stripe: injected sites under placed blocks are
/// detected by the sweep and rebuilt from the surviving chunks.
#[test]
fn scrub_finds_and_repairs_injected_lses() {
    for method in [Method::Tsue, Method::Fo] {
        let mut rcfg = replay(method, 4, 250);
        rcfg.maintenance = MaintenancePlan::new()
            .with_scrub(fast_scrub())
            .with_lse(dense_lse());
        rcfg.validate().expect("scrub plan validates");
        let r = Replay::run(&rcfg).result;
        let name = method.name();

        assert_eq!(r.oracle_violations, 0, "{name}");
        assert_eq!(r.failed_ops, 0, "{name}");
        // 16 devices x 4 sites each.
        assert_eq!(r.lse_injected, 64, "{name}");
        assert!(r.scrub_gib > 0.0, "{name}: scrub did no reading");
        assert!(r.lse_found >= 1, "{name}: scrub found no injected LSE");
        assert!(r.lse_repaired >= 1, "{name}: no found LSE was repaired");
        assert!(
            r.lse_repaired <= r.lse_found,
            "{name}: repaired more than found"
        );
        // Maintenance windows were recorded and the foreground split has
        // a finite busy-side p99.
        assert!(r.maint_busy_p99_us >= 0.0, "{name}");
    }
}

/// The wear-leveling rebalancer must narrow the fleet's wear spread
/// relative to the same run without maintenance, and its migrations must
/// be real (counted) work.
#[test]
fn rebalancer_narrows_wear_spread() {
    let baseline = Replay::run(&replay(Method::Tsue, 4, 250)).result;
    assert!(baseline.wear_spread > 1.0, "workload wear is already even");

    let mut rcfg = replay(Method::Tsue, 4, 250);
    // Horizon past the post-run drain: the final log drain adds skewed
    // wear after the clients stop, and the leveler must outlive it to be
    // judged on the final wear census.
    rcfg.maintenance = MaintenancePlan::new()
        .with_rebalance()
        .with_horizon(200 * simdes::units::MILLIS);
    rcfg.validate().expect("rebalance plan validates");
    let r = Replay::run(&rcfg).result;

    assert_eq!(r.oracle_violations, 0);
    assert!(r.maint_migrated_gib > 0.0, "rebalancer moved nothing");
    assert!(
        r.wear_spread_before > 1.0,
        "before-sample missing: {}",
        r.wear_spread_before
    );
    assert!(
        r.wear_spread < baseline.wear_spread,
        "rebalance did not narrow wear spread: {} vs baseline {}",
        r.wear_spread,
        baseline.wear_spread
    );
}

/// Maintenance must preserve the parallel-replay guarantee: a grid with
/// non-empty maintenance plans fans out across threads and produces
/// results identical to serial runs, field for field — including every
/// maintenance counter.
#[test]
fn parallel_maintained_grid_matches_serial() {
    let mut configs = Vec::new();
    for method in [Method::Fo, Method::Pl, Method::Tsue] {
        let mut r = replay(method, 3, 120);
        r.maintenance = MaintenancePlan::new()
            .with_scrub(fast_scrub())
            .with_lse(dense_lse())
            .with_rebalance();
        configs.push(r);
    }
    let mut full = tiered_replay(Method::Tsue, 4, 120);
    full.maintenance = MaintenancePlan::full().with_lse(dense_lse());
    configs.push(full);
    for rcfg in &configs {
        rcfg.validate().expect("grid config validates");
    }

    let parallel = tsue_bench::run_grid(&configs);
    assert_eq!(parallel.len(), configs.len());
    for (rcfg, p) in configs.iter().zip(&parallel) {
        let s = Replay::run(rcfg).result;
        assert_eq!(p.method, s.method);
        assert_eq!(p.completed_updates, s.completed_updates);
        assert_eq!(p.completed_reads, s.completed_reads);
        assert_eq!(p.net_msgs, s.net_msgs);
        assert_eq!(p.disk.rw_ops(), s.disk.rw_ops());
        assert_eq!(p.lse_injected, s.lse_injected);
        assert_eq!(p.lse_found, s.lse_found);
        assert_eq!(p.lse_repaired, s.lse_repaired);
        assert_eq!(p.failed_ops, s.failed_ops);
        assert!((p.scrub_gib - s.scrub_gib).abs() < 1e-12, "{}", p.method);
        assert!((p.maint_migrated_gib - s.maint_migrated_gib).abs() < 1e-12);
        assert!((p.wear_spread - s.wear_spread).abs() < 1e-12);
        assert!((p.wear_spread_before - s.wear_spread_before).abs() < 1e-12);
        assert!((p.maint_busy_p99_us - s.maint_busy_p99_us).abs() < 1e-9);
        assert!((p.maint_idle_p99_us - s.maint_idle_p99_us).abs() < 1e-9);
        assert!((p.update_iops - s.update_iops).abs() < 1e-9);
    }
}

/// Maintenance composes with the fault timeline: scrub + LSEs + a
/// mid-replay node failure on the same timeline stays consistent and
/// still repairs both the lost blocks and the latent errors.
#[test]
fn maintenance_composes_with_fault_timeline() {
    let mut rcfg = replay(Method::Tsue, 4, 250);
    rcfg.faults = FaultPlan::new().fail_node(40 * simdes::units::MILLIS, 3);
    rcfg.maintenance = MaintenancePlan::new()
        .with_scrub(fast_scrub())
        .with_lse(dense_lse());
    rcfg.validate().expect("composed config validates");
    let r = Replay::run(&rcfg).result;

    assert_eq!(r.oracle_violations, 0);
    assert_eq!(r.failed_ops, 0);
    assert_eq!(r.data_loss_blocks, 0);
    assert!(r.repaired_blocks + r.inline_rebuilds > 0, "nothing rebuilt");
    assert!(r.scrub_gib > 0.0, "scrub starved by repair");
    assert!(r.lse_found >= 1, "scrub found nothing under faults");
}
