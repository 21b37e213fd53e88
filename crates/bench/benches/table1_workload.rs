//! Table 1: storage workload and network traffic — READ/WRITE ops and
//! volume, OVERWRITE (write penalty) ops and volume, and network traffic,
//! per method, replaying Ten-Cloud under RS(6,4).
//!
//! Paper claims: TSUE has the fewest read/write *operations* and by far the
//! fewest overwrites (~8% of FO's); its network traffic is only slightly
//! above CoRD's (the traffic-optimised method); TSUE's raw volume is higher
//! than PARIX/CoRD because of its replicated logs. SSDs under TSUE endure
//! 2.5×–13× longer (erase ratio).

use ecfs::{DiskKind, ReplayConfig, RunResult};
use simdisk::{erase_ratio, SsdConfig};
use traces::TraceFamily;
use tsue_bench::{fig5_methods, print_table, run_grid, ssd_replay};

/// One replay per Fig. 5 method on devices shrunk to `capacity` so the
/// FTL cycles within one run (the paper replays far longer traces on real
/// 400 GB drives).
fn grid(capacity: u64, ops_per_client: usize) -> Vec<RunResult> {
    let configs: Vec<ReplayConfig> = fig5_methods()
        .into_iter()
        .map(|method| {
            let mut rcfg = ssd_replay(6, 4, method, TraceFamily::TenCloud, 16);
            rcfg.cluster.fleet = ecfs::DiskFleet::uniform(DiskKind::Ssd(SsdConfig {
                capacity,
                ..SsdConfig::default()
            }));
            rcfg.volume_bytes = 96 << 20;
            rcfg.ops_per_client = ops_per_client;
            rcfg
        })
        .collect();
    run_grid(&configs)
}

fn main() {
    let results = grid(768 << 20, tsue_bench::ops_per_client() * 2);

    let mut rows = Vec::new();
    for res in &results {
        assert_eq!(res.oracle_violations, 0);
        rows.push(vec![
            res.method.clone(),
            format!("{}", res.disk.rw_ops()),
            format!("{:.2}", res.disk.rw_bytes() as f64 / (1u64 << 30) as f64),
            format!("{}", res.disk.overwrites.ops),
            format!(
                "{:.2}",
                res.disk.overwrites.bytes as f64 / (1u64 << 30) as f64
            ),
            format!("{:.2}", res.net_gib),
            format!("{}", res.erases),
        ]);
    }
    print_table(
        "Table 1: storage workload and network traffic (Ten-Cloud, RS(6,4))",
        &[
            "METHOD",
            "R/W num",
            "R/W GiB",
            "OVERWRITE num",
            "OVERWRITE GiB",
            "NET GiB",
            "erases",
        ],
        &rows,
    );

    // Lifespan: other-method erases over TSUE's. The Table 1 rows above
    // end before most devices garbage-collect, so the ratios come from a
    // second grid in the cycling regime (320 MiB devices, 12 000
    // ops/client: every method erases); the smoke scale skips that grid
    // and reports that its devices never cycled.
    let cycled = if tsue_bench::smoke() {
        results
    } else {
        grid(320 << 20, 12_000)
    };
    let tsue = cycled
        .iter()
        .find(|r| r.method == "TSUE")
        .map_or(0, |r| r.erases);
    let rows: Vec<Vec<String>> = cycled
        .iter()
        .map(|res| {
            vec![
                res.method.clone(),
                format!("{}", res.erases),
                format!("{}", res.disk.gc_erases()),
                format!("{}", res.disk.region_erases),
                match erase_ratio(res.erases, tsue) {
                    Some(r) => format!("{r:.1}x"),
                    None => "n/a (device never cycled)".to_string(),
                },
            ]
        })
        .collect();
    print_table(
        "SSD lifespan vs TSUE (erase-cycle ratio; paper: 2.5x-13x)",
        &[
            "METHOD",
            "erases",
            "GC erases",
            "region erases",
            "erases vs TSUE",
        ],
        &rows,
    );
}
