//! Replay a synthetic Ali-Cloud trace against the 16-node SSD cluster with
//! every update method and print the Fig. 5-style comparison.
//!
//! ```text
//! cargo run --release -p tsue-examples --example replay_cloud [k] [m]
//! ```

use ecfs::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let k: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let code = CodeParams::new(k, m).expect("valid RS(k,m)");

    println!("replaying Ali-Cloud on 16-node SSD cluster, RS({k},{m}), 16 clients\n");
    println!(
        "{:<7} {:>10} {:>10} {:>12} {:>10} {:>9}",
        "method", "IOPS", "lat(us)", "overwrites", "net GiB", "drain(s)"
    );
    let mut tsue_iops = 0.0;
    let mut rows = Vec::new();
    for method in tsue_bench::fig5_methods() {
        let mut cluster = ClusterConfig::ssd_testbed(code, method);
        cluster.clients = 16;
        let mut rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
        rcfg.ops_per_client = 1000;
        rcfg.volume_bytes = 128 << 20;
        let res = Replay::run(&rcfg).result;
        assert_eq!(res.oracle_violations, 0, "consistency oracle violated");
        println!(
            "{:<7} {:>10.0} {:>10.0} {:>12} {:>10.2} {:>9.2}",
            res.method,
            res.update_iops,
            res.latency_mean_us,
            res.disk.overwrites.ops,
            res.net_gib,
            res.drain_s,
        );
        if res.method == "TSUE" {
            tsue_iops = res.update_iops;
        } else {
            rows.push((res.method, res.update_iops));
        }
    }
    println!("\nTSUE speedup:");
    for (method, iops) in rows {
        println!("  {:>5}x vs {}", format!("{:.2}", tsue_iops / iops), method);
    }
}
