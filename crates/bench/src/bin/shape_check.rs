use ecfs::{ClusterConfig, Replay, ReplayConfig};
use rscode::CodeParams;
use traces::TraceFamily;

fn main() {
    // CI smoke (`TSUE_BENCH_SMOKE=1`) shrinks the grid to finish fast while
    // still replaying every method.
    let (clients, ops) = if tsue_bench::smoke() {
        (16, 200)
    } else {
        (64, 800)
    };
    for m in [2usize, 4] {
        let code = CodeParams::new(6, m).unwrap();
        println!("== RS(6,{m}) Ali-Cloud, {clients} clients, {ops} ops/client ==");
        let mut results = vec![];
        for method in tsue_bench::fig5_methods() {
            let mut cluster = ClusterConfig::ssd_testbed(code, method);
            cluster.clients = clients;
            let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
            r.ops_per_client = ops;
            r.volume_bytes = 128 << 20;
            let res = Replay::run(&r).result;
            println!("{:6} iops={:8.0} lat_us={:7.1} rw_ops={:8} ow_ops={:7} net_gib={:6.2} erases={:5} drain_s={:6.3} stalls={}",
                res.method, res.update_iops, res.latency_mean_us, res.disk.rw_ops(), res.disk.overwrites.ops, res.net_gib, res.erases, res.drain_s, res.stalls);
            results.push((res.method, res.update_iops));
        }
        let tsue = results.iter().find(|(m, _)| m == "TSUE").unwrap().1;
        for (method, iops) in &results {
            if method != "TSUE" {
                println!("  TSUE/{method} = {:.2}x", tsue / iops);
            }
        }
    }
}
