//! SSD lifespan analysis (§5.3.4 / Table 1's erase story): replay the same
//! Ten-Cloud burst on deliberately small SSDs, long enough that every
//! method's FTL cycles, and compare flash erase counts across update
//! methods.
//!
//! ```text
//! cargo run --release -p tsue-examples --example ssd_lifespan
//! ```

use ecfs::prelude::*;
use simdisk::erase_ratio;

/// Device size and run length that put all six methods in the cycling
/// regime (every device garbage-collects).
const DEVICE_BYTES: u64 = 320 << 20;
const OPS_PER_CLIENT: usize = 12_000;

fn main() {
    let code = CodeParams::new(6, 4).unwrap();
    println!(
        "Ten-Cloud burst on small ({} MiB) SSDs, RS(6,4), {OPS_PER_CLIENT} ops/client: flash wear\n",
        DEVICE_BYTES >> 20
    );
    println!(
        "{:<7} {:>9} {:>10} {:>14} {:>13} {:>10} {:>9}",
        "method", "erases", "GC erases", "region erases", "GC moved pg", "write amp", "IOPS"
    );
    let mut results = Vec::new();
    for method in tsue_bench::fig5_methods() {
        let mut cluster = ClusterConfig::ssd_testbed(code, method);
        cluster.clients = 16;
        cluster.fleet = DiskFleet::uniform(DiskKind::Ssd(SsdConfig {
            capacity: DEVICE_BYTES,
            ..SsdConfig::default()
        }));
        let mut rcfg = ReplayConfig::new(cluster, TraceFamily::TenCloud);
        rcfg.ops_per_client = OPS_PER_CLIENT;
        rcfg.volume_bytes = 96 << 20;
        let res = Replay::run(&rcfg).result;
        println!(
            "{:<7} {:>9} {:>10} {:>14} {:>13} {:>10.2} {:>9.0}",
            res.method,
            res.erases,
            res.disk.gc_erases(),
            res.disk.region_erases,
            res.disk.gc_relocated_pages,
            res.disk.write_amplification(4096),
            res.update_iops
        );
        assert!(res.erases > 0, "{} never cycled its flash", res.method);
        results.push((res.method, res.erases));
    }
    let tsue = results
        .iter()
        .find(|(m, _)| m == "TSUE")
        .map(|&(_, e)| e)
        .unwrap();
    println!("\nlifespan extension vs TSUE (erase ratio; paper reports 2.5x-13x):");
    for (m, e) in results {
        if m == "TSUE" {
            continue;
        }
        match erase_ratio(e, tsue) {
            Some(r) => println!("  {m:<7} {r:.1}x"),
            None => println!("  {m:<7} n/a (device never cycled)"),
        }
        if m == "CoRD" {
            println!("          ^ below 1x: CoRD erases fewer than TSUE here, ROADMAP arc 1's open question");
        }
    }
}
