//! Fig. 6a: TSUE aggregate IOPS over running time.
//!
//! Paper claim: with the unit quota at 2 the update performance is
//! depressed (back-pressure from recycling); at 4 or more it is high and
//! stable — "the impact of the back-end log recycle process on update
//! performance is negligible".

use std::sync::Arc;

use ecfs::methods::Tsue;
use ecfs::Replay;
use traces::TraceFamily;
use tsue_bench::{print_table, ssd_replay};

fn main() {
    let mut rows = Vec::new();
    let mut header_secs: Vec<String> = Vec::new();
    for max_units in [2usize, 4, 8] {
        // The paper's peak configuration (64 clients) — the quota only
        // matters when append pressure approaches the recycle rate.
        let mut rcfg = ssd_replay(6, 2, Arc::new(Tsue), TraceFamily::AliCloud, 64);
        rcfg.cluster.tsue_max_units = max_units;
        rcfg.cluster.tsue_unit_bytes = 1 << 20;
        // A longer run so the series has enough buckets.
        rcfg.ops_per_client = tsue_bench::ops_per_client() * 8;
        let res = Replay::run(&rcfg).result;
        let series = &res.series;
        if header_secs.is_empty() {
            header_secs = series.iter().map(|(t, _)| format!("{t:.0}s")).collect();
        }
        let mut row = vec![format!("quota {max_units}")];
        for (_, iops) in series {
            row.push(tsue_bench::kfmt(*iops));
        }
        // Pad/truncate to the common header length.
        row.resize(header_secs.len() + 1, String::from("-"));
        println!(
            "# quota {max_units}: mean IOPS {:.0}, stalled appends {}",
            res.update_iops, res.stalls
        );
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("units".to_string())
        .chain(header_secs.iter().cloned())
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(
        "Fig. 6a: TSUE update completions per second over time (Ali-Cloud, RS(6,2))",
        &header_refs,
        &rows,
    );
}
