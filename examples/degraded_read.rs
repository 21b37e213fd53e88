//! End-to-end degraded-read walkthrough: a whole rack dies mid-replay,
//! clients keep issuing, reads of lost blocks are decoded from `k`
//! survivors, and the repair scheduler rebuilds the rack's blocks while
//! competing with the foreground traffic.
//!
//! Run with `cargo run --release -p tsue-examples --example degraded_read`.

use ecfs::prelude::*;

fn main() {
    // 16 nodes in 4 racks behind a 2:1 spine; rack-aware placement keeps
    // every stripe within the m-erasure budget per rack, so the rack
    // failure is survivable.
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, Method::Tsue);
    cluster.clients = 8;
    cluster.racks = 4;
    cluster.oversubscription = 2.0;
    cluster.placement = Placement::RackAware;

    // Rack 1 dies 40 ms into the replay (well after its blocks are
    // populated); detection takes another 20 ms, and repair is throttled
    // to 400 MiB/s so the rebuild visibly overlaps the client window.
    let plan = FaultPlan::new()
        .fail_rack(40 * simdes::units::MILLIS, 1)
        .with_recovery_delay(20 * simdes::units::MILLIS)
        .with_repair_bandwidth(400 << 20);

    let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
        .ops_per_client(400)
        .volume_bytes(64 << 20)
        .faults(plan)
        .build()
        .expect("valid faulted replay");

    let r = Replay::run(&rcfg).result;

    println!("== mid-replay rack failure ({}) ==", r.method);
    println!("completed updates     : {}", r.completed_updates);
    println!("completed reads       : {}", r.completed_reads);
    println!("degraded reads        : {}", r.degraded_reads);
    println!("bytes decoded         : {}", r.degraded_bytes_decoded);
    println!("blocks repaired       : {}", r.repaired_blocks);
    println!("inline rebuilds       : {}", r.inline_rebuilds);
    println!("repair traffic (GiB)  : {:.3}", r.net_repair_gib);
    println!("MTTR (s)              : {:.4}", r.mttr_s);
    println!("steady p99 (us)       : {:.0}", r.steady_p99_us);
    println!("degraded p99 (us)     : {:.0}", r.degraded_p99_us);
    println!("failed ops            : {}", r.failed_ops);
    println!("oracle violations     : {}", r.oracle_violations);

    assert_eq!(r.oracle_violations, 0, "consistency must hold");
    assert_eq!(r.failed_ops, 0, "rack-aware placement keeps data available");
    assert!(r.degraded_reads > 0, "the degraded path must be exercised");
    assert!(r.repaired_blocks > 0, "the repair scheduler must rebuild");
    assert!(r.mttr_s > 0.0);
    println!("\nok: degraded reads served, rack rebuilt, oracle green.");
}
