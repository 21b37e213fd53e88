//! End-to-end cluster tests: every method replays a trace, drains, and
//! satisfies the consistency oracle; relative performance matches the
//! paper's ordering.

use ecfs::{ClusterConfig, Method, Replay, ReplayConfig};
use rscode::CodeParams;
use traces::TraceFamily;

fn small_replay(method: Method, family: TraceFamily) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = 8;
    let mut r = ReplayConfig::new(cluster, family);
    r.ops_per_client = 400;
    r.volume_bytes = 64 << 20;
    r
}

#[test]
fn every_method_completes_and_is_consistent() {
    for method in Method::ALL {
        let rcfg = small_replay(method, TraceFamily::AliCloud);
        let res = Replay::run(&rcfg).result;
        assert_eq!(
            res.oracle_violations,
            0,
            "{}: oracle violations",
            method.name()
        );
        assert!(
            res.completed_updates > 1500,
            "{}: only {} updates completed",
            method.name(),
            res.completed_updates
        );
        assert!(res.update_iops > 0.0, "{}: zero iops", method.name());
        assert!(
            res.completed_updates + res.completed_reads + res.completed_writes == 8 * 400,
            "{}: op count mismatch: {} + {} + {}",
            method.name(),
            res.completed_updates,
            res.completed_reads,
            res.completed_writes
        );
    }
}

#[test]
fn replay_is_deterministic() {
    let rcfg = small_replay(Method::Tsue, TraceFamily::TenCloud);
    let a = Replay::run(&rcfg).result;
    let b = Replay::run(&rcfg).result;
    assert_eq!(a.completed_updates, b.completed_updates);
    assert_eq!(a.duration_s, b.duration_s);
    assert_eq!(a.disk.rw_ops(), b.disk.rw_ops());
    assert_eq!(a.net_msgs, b.net_msgs);
}

#[test]
fn tsue_beats_every_baseline_on_ssd() {
    let mut iops = std::collections::HashMap::new();
    for method in Method::ALL.into_iter().filter(|&m| m != Method::Fl) {
        let r = Replay::run(&small_replay(method, TraceFamily::AliCloud)).result;
        iops.insert(r.method, r.update_iops);
    }
    let tsue = iops["TSUE"];
    for (m, v) in &iops {
        if m != "TSUE" {
            assert!(tsue > *v, "TSUE ({tsue:.0}) must beat {m} ({v:.0})");
        }
    }
    // PLR is the weakest SSD method in the paper.
    assert!(
        iops["PLR"] < iops["PL"],
        "PLR ({:.0}) must trail PL ({:.0})",
        iops["PLR"],
        iops["PL"]
    );
}

#[test]
fn tsue_has_lowest_overwrites() {
    let overwrites = |method| {
        let rcfg = small_replay(method, TraceFamily::TenCloud);
        Replay::run(&rcfg).result.disk.overwrites.ops
    };
    let tsue = overwrites(Method::Tsue);
    let fo = overwrites(Method::Fo);
    assert!(
        tsue * 3 < fo,
        "TSUE overwrites ({tsue}) must be well below FO's ({fo})"
    );
}

#[test]
fn tsue_erases_fewer_flash_blocks_than_fo() {
    let erases = |method| {
        let rcfg = small_replay(method, TraceFamily::TenCloud);
        Replay::run(&rcfg).result.erases
    };
    let tsue = erases(Method::Tsue);
    let fo = erases(Method::Fo);
    assert!(
        tsue <= fo,
        "TSUE erases ({tsue}) must not exceed FO's ({fo})"
    );
}

#[test]
fn update_latency_tsue_below_fo() {
    let lat = |method| {
        let rcfg = small_replay(method, TraceFamily::AliCloud);
        Replay::run(&rcfg).result.latency_mean_us
    };
    let tsue = lat(Method::Tsue);
    let fo = lat(Method::Fo);
    assert!(
        tsue < fo,
        "TSUE mean latency ({tsue:.0} us) must be below FO's ({fo:.0} us)"
    );
}
