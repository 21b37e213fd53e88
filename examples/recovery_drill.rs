//! Recovery drill (the Fig. 8b scenario): run an update burst, fail an OSD,
//! drain outstanding logs, reconstruct, and print each method's drain
//! time, rebuild time and recovery bandwidth.
//!
//! Every rebuild takes ≈ 0.22 s, so the drain sets the bandwidth. The
//! drill prints FO 217 MiB/s (no logs, no drain), PLR 34, TSUE 19,
//! PARIX 6 and PL 2. TSUE's 2.31 s drain is well below PARIX's 7.5 s and
//! PL's 28.8 s, but above PLR's 1.19 s. The paper puts TSUE's recovery
//! bandwidth near FO's; this model does not reproduce that yet (see
//! ROADMAP.md, "Fig. 8b as a gated value, and a drain scoped to what was
//! lost").
//!
//! ```text
//! cargo run --release -p tsue-examples --example recovery_drill
//! ```

use ecfs::prelude::*;

fn main() {
    let code = CodeParams::new(6, 4).unwrap();
    println!("update burst, then OSD 3 fails; RS(6,4), HDD cluster\n");
    println!(
        "{:<7} {:>9} {:>12} {:>12} {:>14}",
        "method", "blocks", "drain (s)", "rebuild (s)", "recovery MiB/s"
    );
    for method in [
        Method::Fo,
        Method::Pl,
        Method::Plr,
        Method::Parix,
        Method::Tsue,
    ] {
        let mut cluster = ClusterConfig::hdd_testbed(code, method);
        cluster.clients = 8;
        // Small units keep TSUE's real-time recycling active in a short run.
        cluster.tsue_unit_bytes = 1 << 20;
        let mut rcfg = ReplayConfig::new(
            cluster,
            TraceFamily::Msr(traces::workload::MsrVolume::Src10),
        );
        rcfg.ops_per_client = 300;
        rcfg.volume_bytes = 96 << 20;

        let (mut sim, mut cl) = run_update_phase(&rcfg);
        let res = recover_node(&mut sim, &mut cl, 3);
        println!(
            "{:<7} {:>9} {:>12.3} {:>12.3} {:>14.0}",
            method.name(),
            res.blocks,
            res.drain_s,
            res.rebuild_s,
            res.bandwidth_mib_s
        );
        // After recovery the oracle must still hold: nothing acked was lost.
        let violations = cl.oracle.violations(&cl.layout);
        assert!(violations.is_empty(), "{method:?}: {violations:?}");
    }
    println!("\n(FO has no logs; TSUE drains less than PL and PARIX\n because its logs are merged and recycled in real time.)");

    // Part two: the rack drill. A whole top-of-rack switch dies. Placement
    // decides survival: rack-aware bounds a stripe's per-rack block count
    // at m, the topology-blind default does not.
    println!("\nrack drill: 16 nodes in 4 racks (4:1 spine), rack 1 fails; RS(6,3), SSD\n");
    let code = CodeParams::new(6, 3).unwrap();
    for placement in [Placement::RackAware, Placement::FlatRotate] {
        let mut cluster = ClusterConfig::ssd_testbed(code, Method::Tsue);
        cluster.clients = 8;
        cluster.racks = 4;
        cluster.oversubscription = 4.0;
        cluster.placement = placement;
        let mut rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
        rcfg.ops_per_client = 300;
        rcfg.volume_bytes = 96 << 20;

        let (mut sim, mut cl) = run_update_phase(&rcfg);
        match recover_rack(&mut sim, &mut cl, 1) {
            Ok(res) => println!(
                "{:<12} recovered {} blocks at {:.0} MiB/s ({:.2} GiB across the spine)",
                placement.name(),
                res.blocks,
                res.bandwidth_mib_s,
                res.cross_rack_gib
            ),
            Err(e) => println!("{:<12} {e}", placement.name()),
        }
    }
    println!("\n(with 4 racks >= ceil((k+m)/m) = 3, rack-aware placement leaves at most\n m blocks of a stripe per rack, so a whole-rack failure stays reconstructible.)");
}
