//! Fig. 6b: TSUE update IOPS and log-memory footprint versus the maximum
//! number of log units per pool.
//!
//! Paper claim: performance saturates at a quota of ~4 units; pushing the
//! quota to 20 only grows memory (up to ~3.8 GB per SSD at paper scale)
//! without improving throughput — hence the paper's default of 4.

use std::sync::Arc;

use ecfs::methods::Tsue;
use ecfs::Replay;
use traces::TraceFamily;
use tsue_bench::{kfmt, print_table, ssd_replay};

fn main() {
    let mut rows = Vec::new();
    for max_units in [2usize, 4, 6, 8, 12, 16, 20] {
        let mut rcfg = ssd_replay(6, 2, Arc::new(Tsue), TraceFamily::AliCloud, 64);
        rcfg.cluster.tsue_max_units = max_units;
        rcfg.cluster.tsue_unit_bytes = 1 << 20;
        let res = Replay::run(&rcfg).result;
        let mem_mib = res.log_memory_bytes as f64 / (1 << 20) as f64;
        rows.push(vec![
            format!("{max_units}"),
            kfmt(res.update_iops),
            format!("{mem_mib:.0}"),
            format!("{}", res.stalls),
        ]);
    }
    print_table(
        "Fig. 6b: IOPS and log memory vs max log units (TSUE, Ali-Cloud, RS(6,2))",
        &[
            "max units",
            "IOPS",
            "log mem (MiB, cluster)",
            "stalled appends",
        ],
        &rows,
    );
}
