//! Per-method unit tests over a minimal cluster: each driver's I/O and
//! network signature must match its paper description.

use ecfs::{ClusterConfig, DiskFleet, DiskKind, Method, Replay, ReplayConfig, RunResult};
use rscode::CodeParams;
use simdisk::SsdConfig;
use traces::TraceFamily;

fn run(method: Method, m: usize) -> RunResult {
    let code = CodeParams::new(4, m).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.nodes = 8;
    cluster.clients = 4;
    let mut rcfg = ReplayConfig::new(cluster, TraceFamily::TenCloud);
    rcfg.ops_per_client = 300;
    rcfg.volume_bytes = 32 << 20;
    rcfg.seed = 99;
    Replay::run(&rcfg).result
}

#[test]
fn fo_touches_every_parity_in_place() {
    // FO: per update 2(k-side) + 2m(parity) random ops, no logs, no drain.
    let r2 = run(Method::Fo, 2);
    let r4 = run(Method::Fo, 4);
    assert_eq!(r2.drain_s, 0.0);
    assert!(
        r4.disk.rw_ops() > r2.disk.rw_ops() * 4 / 3,
        "m scaling missing"
    );
    // Every write is an in-place overwrite after the first touch.
    assert!(
        r2.disk.overwrites.ops * 3 > r2.disk.writes_total(),
        "FO must overwrite heavily"
    );
}

#[test]
fn pl_defers_all_parity_work_to_drain() {
    let r = run(Method::Pl, 3);
    assert!(r.drain_s > 0.0, "PL must pay a drain");
    assert_eq!(r.oracle_violations, 0);
}

#[test]
fn plr_is_the_only_method_erasing_fixed_regions() {
    let plr = run(Method::Plr, 3);
    let pl = run(Method::Pl, 3);
    assert!(plr.erases > 0, "PLR reserved-space reuse must erase");
    assert_eq!(pl.erases, 0, "PL never erases on a roomy device");
}

#[test]
fn parix_ships_more_bytes_than_pl() {
    // PARIX forwards full new data (and originals on first touch) instead
    // of deltas of the same size — its traffic exceeds PL's whenever
    // first-touch rounds occur.
    let parix = run(Method::Parix, 3);
    let pl = run(Method::Pl, 3);
    assert!(
        parix.net_gib > pl.net_gib,
        "PARIX {:.3} GiB vs PL {:.3} GiB",
        parix.net_gib,
        pl.net_gib
    );
}

#[test]
fn cord_has_lowest_network_traffic() {
    let cord = run(Method::Cord, 3);
    for other in [Method::Fo, Method::Pl, Method::Parix, Method::Tsue] {
        let r = run(other, 3);
        assert!(
            cord.net_gib <= r.net_gib * 1.05,
            "CoRD {:.3} GiB must not exceed {} {:.3} GiB",
            cord.net_gib,
            other.name(),
            r.net_gib
        );
    }
}

#[test]
fn tsue_network_is_near_cord_and_below_parix() {
    // Table 1: TSUE's traffic is only slightly above CoRD's.
    let tsue = run(Method::Tsue, 3);
    let cord = run(Method::Cord, 3);
    let parix = run(Method::Parix, 3);
    assert!(tsue.net_gib < parix.net_gib);
    assert!(tsue.net_gib < cord.net_gib * 2.0);
}

#[test]
fn tsue_read_cache_serves_hot_reads() {
    let r = run(Method::Tsue, 2);
    assert!(
        r.cache_read_hits > 0,
        "hot zipf reads must hit the log read-cache"
    );
}

#[test]
fn fl_completes_and_stays_consistent() {
    let mut cluster = ClusterConfig::ssd_testbed(CodeParams::new(4, 2).unwrap(), Method::Fl);
    cluster.nodes = 8;
    cluster.clients = 4;
    // Low threshold so the foreground recycle path actually triggers.
    cluster.fl_threshold_bytes = 4 << 20;
    cluster.fleet = DiskFleet::uniform(DiskKind::Ssd(SsdConfig::default()));
    let mut rcfg = ReplayConfig::new(cluster, TraceFamily::TenCloud);
    rcfg.ops_per_client = 400;
    rcfg.volume_bytes = 32 << 20;
    let r = Replay::run(&rcfg).result;
    assert_eq!(r.oracle_violations, 0);
    assert!(r.completed_updates > 0);
}

trait WritesTotal {
    fn writes_total(&self) -> u64;
}
impl WritesTotal for simdisk::DeviceStats {
    fn writes_total(&self) -> u64 {
        self.writes.ops
    }
}
