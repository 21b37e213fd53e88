//! Fig. 6b: TSUE update IOPS and log-memory footprint versus the maximum
//! number of log units per pool.
//!
//! Paper claim: performance saturates at a quota of ~4 units; pushing the
//! quota to 20 only grows memory (up to ~3.8 GB per SSD at paper scale)
//! without improving throughput — hence the paper's default of 4.
//!
//! The bench asserts that claim on its results: every quota ≥ 4 reaches
//! within 1 % of quota 4's IOPS with no stalled appends, and log memory is
//! non-decreasing in the quota and larger at 20 than at 4 (default scale:
//! 59.0k IOPS at every quota, 836 → 898 MiB).

use std::sync::Arc;

use ecfs::methods::Tsue;
use ecfs::Replay;
use traces::TraceFamily;
use tsue_bench::{kfmt, print_table, ssd_replay};

/// The paper's default quota, where throughput saturates.
const SATURATING_QUOTA: usize = 4;

fn main() {
    let quotas = [2usize, 4, 6, 8, 12, 16, 20];
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for max_units in quotas {
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
        results.push(res);
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

    let at = |quota: usize| &results[quotas.iter().position(|&q| q == quota).unwrap()];
    let saturated = at(SATURATING_QUOTA);
    for (&quota, res) in quotas.iter().zip(&results) {
        if quota < SATURATING_QUOTA {
            continue;
        }
        assert!(
            res.update_iops >= 0.99 * saturated.update_iops,
            "quota {quota}: {:.0} IOPS is not within 1% of quota {SATURATING_QUOTA}'s {:.0}",
            res.update_iops,
            saturated.update_iops
        );
        assert_eq!(res.stalls, 0, "quota {quota}: appends stalled");
    }
    for (pair, res) in quotas.windows(2).zip(results.windows(2)) {
        assert!(
            res[1].log_memory_bytes >= res[0].log_memory_bytes,
            "log memory shrank from quota {} ({} B) to {} ({} B)",
            pair[0],
            res[0].log_memory_bytes,
            pair[1],
            res[1].log_memory_bytes
        );
    }
    assert!(
        at(20).log_memory_bytes > saturated.log_memory_bytes,
        "a quota of 20 must cost more log memory than {SATURATING_QUOTA} ({} vs {} B)",
        at(20).log_memory_bytes,
        saturated.log_memory_bytes
    );
}
