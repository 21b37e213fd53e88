//! SSD lifespan analysis (§5.3.4 / Table 1's erase story): replay the same
//! Ten-Cloud burst on deliberately small SSDs so the FTL cycles, and
//! compare flash erase counts across update methods.
//!
//! ```text
//! cargo run --release -p tsue-examples --example ssd_lifespan
//! ```

use ecfs::prelude::*;

fn main() {
    let code = CodeParams::new(6, 4).unwrap();
    println!("Ten-Cloud burst on small (768 MiB) SSDs, RS(6,4): flash wear\n");
    println!(
        "{:<7} {:>9} {:>13} {:>12} {:>9}",
        "method", "erases", "GC moved pg", "write amp", "IOPS"
    );
    let mut results = Vec::new();
    for method in [
        MethodKind::Fo,
        MethodKind::Pl,
        MethodKind::Plr,
        MethodKind::Parix,
        MethodKind::Cord,
        MethodKind::Tsue,
    ] {
        let mut cluster = ClusterConfig::ssd_testbed(code, method);
        cluster.clients = 16;
        cluster.fleet = DiskFleet::uniform(DiskKind::Ssd(SsdConfig {
            capacity: 768 << 20,
            ..SsdConfig::default()
        }));
        let mut rcfg = ReplayConfig::new(cluster, TraceFamily::TenCloud);
        rcfg.ops_per_client = 1200;
        rcfg.volume_bytes = 96 << 20;
        let res = Replay::run(&rcfg).result;
        println!(
            "{:<7} {:>9} {:>13} {:>12.2} {:>9.0}",
            method.name(),
            res.erases,
            res.disk.gc_relocated_pages,
            res.disk.write_amplification(4096),
            res.update_iops
        );
        results.push((method, res.erases));
    }
    let tsue = results
        .iter()
        .find(|(m, _)| *m == MethodKind::Tsue)
        .map(|&(_, e)| e.max(1))
        .unwrap();
    println!("\nlifespan extension vs TSUE (erase ratio; paper reports 2.5x-13x):");
    for (m, e) in results {
        if m != MethodKind::Tsue {
            println!("  {:<7} {:.1}x", m.name(), e as f64 / tsue as f64);
        }
    }
}
