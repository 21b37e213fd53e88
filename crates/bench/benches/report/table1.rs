//! Table 1: storage workload and network traffic — READ/WRITE ops and
//! volume, OVERWRITE (write penalty) ops and volume, and network traffic,
//! per method, replaying Ten-Cloud under RS(6,4).
//!
//! Paper claims: TSUE has the fewest read/write *operations* and by far the
//! fewest overwrites (~8% of FO's); its network traffic is only slightly
//! above CoRD's (the traffic-optimised method); TSUE's raw volume is higher
//! than PARIX/CoRD because of its replicated logs. SSDs under TSUE endure
//! 2.5×–13× longer (erase ratio).

use ecfs::{DiskFleet, DiskKind, ReplayConfig, RunResult};
use simdisk::{erase_ratio, SsdConfig};
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, plain, Results, Sweep};
use tsue_bench::{fig5_methods, print_table, ssd_replay, BenchReport};

/// A cell: its grid, `table` (the Table 1 rows) or `lifespan`.
type Label = &'static str;
type Column = tsue_bench::sweep::Column<Label>;

/// One replay per Fig. 5 method on devices shrunk to `capacity` so the
/// FTL cycles within one run (the paper replays far longer traces on real
/// 400 GB drives).
fn grid(name: Label, capacity: u64, ops_per_client: usize) -> Vec<(Label, ReplayConfig)> {
    fig5_methods()
        .into_iter()
        .map(|method| {
            let mut rcfg = ssd_replay(6, 4, method, TraceFamily::TenCloud, 16);
            rcfg.cluster.fleet = DiskFleet::uniform(DiskKind::Ssd(SsdConfig {
                capacity,
                ..SsdConfig::default()
            }));
            rcfg.volume_bytes = 96 << 20;
            rcfg.ops_per_client = ops_per_client;
            (name, rcfg)
        })
        .collect()
}

pub fn sweep() -> Sweep<Label> {
    let mut cells = grid("table", 768 << 20, tsue_bench::ops_per_client() * 2);
    // Lifespan: other-method erases over TSUE's. The Table 1 rows end
    // before most devices garbage-collect, so the ratios come from a
    // second grid in the cycling regime (320 MiB devices, 12 000
    // ops/client: every method erases); the smoke scale skips that grid
    // and reports that its devices never cycled.
    if !tsue_bench::smoke() {
        cells.extend(grid("lifespan", 320 << 20, 12_000));
    }
    let title = "Table 1: storage workload and network traffic (Ten-Cloud, RS(6,4))";
    Sweep::new("table1", title, cells, check)
        .columns([
            Column::key("method", |r| r.res.method.clone()).show("METHOD", plain),
            Column::key("rw_ops", |r| r.res.disk.rw_ops()).show("R/W num", plain),
            Column::key("rw_gib", |r| gib(r.res.disk.rw_bytes())).show("R/W GiB", fixed::<2>),
            Column::key("overwrite_ops", |r| r.res.disk.overwrites.ops)
                .show("OVERWRITE num", plain),
            Column::key("overwrite_gib", |r| gib(r.res.disk.overwrites.bytes))
                .show("OVERWRITE GiB", fixed::<2>),
            Column::key("net_gib", |r| r.res.net_gib).show("NET GiB", fixed::<2>),
            Column::key("erases", |r| r.res.erases).show("erases", plain),
        ])
        // The lifespan cells feed the check's second table only.
        .rows(|grid, _| usize::from(*grid == "table"))
}

fn gib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Prints the lifespan table: each method's erases against TSUE's.
fn check(results: &Results<Label>, _: &mut BenchReport) {
    let grid = if tsue_bench::smoke() {
        "table"
    } else {
        "lifespan"
    };
    let cycled: Vec<&RunResult> = results
        .iter()
        .filter(|(label, _)| **label == grid)
        .map(|(_, res)| res)
        .collect();
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
