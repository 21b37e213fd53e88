//! Fig. 6b: TSUE update IOPS and log-memory footprint versus the maximum
//! number of log units per pool.
//!
//! Paper claim: performance saturates at a quota of ~4 units; pushing the
//! quota to 20 only grows memory (up to ~3.8 GB per SSD at paper scale)
//! without improving throughput — hence the paper's default of 4.
//!
//! The check asserts that claim on the results: every quota ≥ 4 reaches
//! within 1 % of quota 4's IOPS with no stalled appends, and log memory is
//! non-decreasing in the quota and larger at 20 than at 4 (default scale:
//! 59.0k IOPS at every quota, 836 → 898 MiB).

use ecfs::Method;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, kilo, plain, Results, Sweep};
use tsue_bench::{ssd_replay, BenchReport};

/// The paper's default quota, where throughput saturates.
const SATURATING_QUOTA: usize = 4;

/// A cell: the pool's maximum number of log units.
type Label = usize;
type Column = tsue_bench::sweep::Column<Label>;

pub fn sweep() -> Sweep<Label> {
    let cells = [2usize, 4, 6, 8, 12, 16, 20]
        .into_iter()
        .map(|max_units| {
            let mut rcfg = ssd_replay(6, 2, Method::Tsue, TraceFamily::AliCloud, 64);
            rcfg.cluster.tsue_max_units = max_units;
            rcfg.cluster.tsue_unit_bytes = 1 << 20;
            (max_units, rcfg)
        })
        .collect();
    let title = "Fig. 6b: IOPS and log memory vs max log units (TSUE, Ali-Cloud, RS(6,2))";
    Sweep::new("fig6b", title, cells, check).columns([
        Column::key("max_units", |r| *r.label).show("max units", plain),
        Column::key("update_iops", |r| r.res.update_iops).show("IOPS", kilo),
        Column::key("log_mem_mib", |r| {
            r.res.log_memory_bytes as f64 / (1 << 20) as f64
        })
        .show("log mem (MiB, cluster)", fixed::<0>),
        Column::key("stalls", |r| r.res.stalls).show("stalled appends", plain),
    ])
}

fn check(results: &Results<Label>, _: &mut BenchReport) {
    let saturated = results.get(|&quota| quota == SATURATING_QUOTA);
    for (&quota, res) in results.iter() {
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
    let cells: Vec<_> = results.iter().collect();
    for pair in cells.windows(2) {
        let ((q0, r0), (q1, r1)) = (pair[0], pair[1]);
        assert!(
            r1.log_memory_bytes >= r0.log_memory_bytes,
            "log memory shrank from quota {q0} ({} B) to {q1} ({} B)",
            r0.log_memory_bytes,
            r1.log_memory_bytes
        );
    }
    let at_20 = results.get(|&quota| quota == 20);
    assert!(
        at_20.log_memory_bytes > saturated.log_memory_bytes,
        "a quota of 20 must cost more log memory than {SATURATING_QUOTA} ({} vs {} B)",
        at_20.log_memory_bytes,
        saturated.log_memory_bytes
    );
}
