//! Cross-crate integration tests: trace generation → cluster replay →
//! consistency oracle → recovery, plus engine/codec cross-checks.

use ecfs::prelude::*;
use rscode::{ReedSolomon, Stripe};
use traces::workload::MsrVolume;
use tsue::engine::{EngineConfig, TsueEngine};

fn replay(method: Method, family: TraceFamily, clients: u64) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = clients;
    let mut r = ReplayConfig::new(cluster, family);
    r.ops_per_client = 300;
    r.volume_bytes = 64 << 20;
    r
}

#[test]
fn trace_to_cluster_to_oracle_all_families() {
    for family in [
        TraceFamily::AliCloud,
        TraceFamily::TenCloud,
        TraceFamily::Msr(MsrVolume::Src10),
    ] {
        let res = Replay::run(&replay(Method::Tsue, family, 6)).result;
        assert_eq!(res.oracle_violations, 0, "{family:?}");
        assert!(res.completed_updates > 0, "{family:?}");
    }
}

/// The closed loop's op supply is one generator per client, pulled as
/// each op is issued, so its bytes do not grow with the run length (ops
/// built before the run held 16 B each: 56 KiB for 4 × 900).
#[test]
fn closed_loop_op_supply_is_independent_of_run_length() {
    let supply_bytes = |ops| {
        let mut rcfg = replay(Method::Fo, TraceFamily::AliCloud, 4);
        rcfg.ops_per_client = ops;
        Replay::run(&rcfg).result.workload_state_bytes
    };
    let (short, long) = (supply_bytes(300), supply_bytes(900));
    assert_eq!(short, long);
    assert!(short > 0 && short < 4 << 10, "{short} B");
}

#[test]
fn recovery_after_live_updates_is_complete() {
    for method in [Method::Tsue, Method::Pl, Method::Fo] {
        let rcfg = replay(method, TraceFamily::AliCloud, 6);
        let (mut sim, mut cl) = run_update_phase(&rcfg);
        let res = recover_node(&mut sim, &mut cl, 2);
        assert!(res.blocks > 0, "{method:?}: no blocks to recover");
        assert!(res.bandwidth_mib_s > 0.0, "{method:?}");
        assert!(
            cl.net.traffic().repair_bytes() > 0,
            "{method:?}: rebuild transfers must count as repair traffic"
        );
        // After the pre-recovery drain, nothing acked may be missing.
        let violations = cl.oracle.violations(&cl.layout);
        assert!(violations.is_empty(), "{method:?}: {violations:?}");
    }
}

#[test]
fn tsue_recovery_drains_less_than_pl() {
    let pl = {
        let (mut sim, mut cl) = run_update_phase(&replay(Method::Pl, TraceFamily::AliCloud, 6));
        recover_node(&mut sim, &mut cl, 2)
    };
    let tsue = {
        let (mut sim, mut cl) = run_update_phase(&replay(Method::Tsue, TraceFamily::AliCloud, 6));
        recover_node(&mut sim, &mut cl, 2)
    };
    assert!(
        tsue.drain_s < pl.drain_s,
        "TSUE drain {:.3}s must be below PL's {:.3}s (real-time recycling)",
        tsue.drain_s,
        pl.drain_s
    );
}

#[test]
fn engine_and_stripe_agree_on_update_semantics() {
    // The concurrent engine and the reference Stripe must produce identical
    // parity for identical update sequences.
    let code = CodeParams::new(3, 2).unwrap();
    let block_len = 8192u32;
    let engine = TsueEngine::new(EngineConfig {
        code,
        block_len,
        stripes: 1,
        unit_bytes: 8192,
        max_units: 4,
        pools_per_layer: 1,
        recycler_threads: 1,
    });
    let rs = ReedSolomon::new(code);
    let mut stripe = Stripe::zeroed(rs, block_len as usize);

    let updates: [(u16, u32, &[u8]); 4] = [
        (0, 0, b"abcdef"),
        (1, 4000, &[0xaa; 100]),
        (0, 3, b"XYZ"),
        (2, 8000, &[1, 2, 3]),
    ];
    for (block, off, data) in updates {
        engine.update(0, block, off, data);
        stripe.update(block as usize, off as usize, data);
    }
    engine.flush();
    assert!(engine.verify_parity());
    for i in 0..5 {
        assert_eq!(
            engine.raw_block(0, i),
            stripe.block(i),
            "block {i} diverged between engine and reference stripe"
        );
    }
}

#[test]
fn hdd_cluster_inverts_fo_ranking() {
    // On HDDs FO must be the worst method (paper Fig. 8a: TSUE up to 16x FO),
    // while on SSDs FO is mid-pack.
    let code = CodeParams::new(6, 3).unwrap();
    let run = |method| {
        let mut cluster = ClusterConfig::hdd_testbed(code, method);
        cluster.clients = 6;
        let mut rcfg = ReplayConfig::new(cluster, TraceFamily::Msr(MsrVolume::Src10));
        rcfg.ops_per_client = 120;
        rcfg.volume_bytes = 64 << 20;
        Replay::run(&rcfg).result
    };
    let fo = run(Method::Fo);
    let pl = run(Method::Pl);
    let tsue = run(Method::Tsue);
    assert_eq!(fo.oracle_violations, 0);
    assert!(
        pl.update_iops > fo.update_iops,
        "PL ({:.0}) must beat FO ({:.0}) on HDDs",
        pl.update_iops,
        fo.update_iops
    );
    assert!(
        tsue.update_iops > 3.0 * fo.update_iops,
        "TSUE ({:.0}) must be >3x FO ({:.0}) on HDDs",
        tsue.update_iops,
        fo.update_iops
    );
}

#[test]
fn fig7_ladder_is_monotonic_enough() {
    // Each cumulative optimisation should help or be neutral; O3 (log pool)
    // must be a clear jump, O4 (multi-pool) may be small (the paper calls
    // it minimal).
    let mut last = 0.0f64;
    let mut o3_gain = 0.0f64;
    let mut prev = 0.0f64;
    for (label, feats) in ecfs::TsueFeatures::ladder() {
        // The ladder's effects bind at saturation (high client:node ratio).
        let mut rcfg = replay(Method::Tsue, TraceFamily::AliCloud, 48);
        rcfg.cluster.tsue = feats;
        rcfg.cluster.tsue_unit_bytes = 2 << 20; // small units: recycling active
        rcfg.ops_per_client = 400;
        rcfg.volume_bytes = 96 << 20;
        let res = Replay::run(&rcfg).result;
        assert_eq!(res.oracle_violations, 0, "{label}");
        if label == "O3" {
            o3_gain = res.update_iops / prev.max(1.0);
        }
        prev = res.update_iops;
        last = last.max(res.update_iops);
    }
    assert!(
        o3_gain > 1.2,
        "log pool (O3) must be a clear jump: {o3_gain:.2}x"
    );
    assert!(last > 0.0);
}

#[test]
fn parity_append_residency_is_recorded_without_the_delta_log() {
    // With the DeltaLog off (the HDD testbed, Fig. 7's rungs below O5),
    // data deltas go straight to every ParityLog: those appends are the
    // ParityLog's append residency, and there is no DeltaLog traffic.
    let mut rcfg = replay(Method::Tsue, TraceFamily::AliCloud, 8);
    rcfg.cluster.tsue.delta_log = false;
    rcfg.cluster.tsue_unit_bytes = 256 << 10; // small units: recycling active
    let res = Replay::run(&rcfg).result;
    assert_eq!(res.oracle_violations, 0);
    assert!(
        res.parity_residency.append_us > 0.0,
        "{:?}",
        res.parity_residency
    );
    assert_eq!(res.delta_residency.append_us, 0.0);
}
