//! Table 2: how long updated data resides in memory, per log layer, under
//! RS(12,4) — append time, buffered time, recycle time, and the total
//! residency from update to full merge.
//!
//! Paper claims: appends and recycles are µs-to-ms scale; the buffered time
//! dominates (seconds); total residency is ~10 s, short enough that
//! dual-copy logs provide the needed reliability window.

use std::sync::Arc;

use ecfs::methods::Tsue;
use ecfs::Replay;
use traces::TraceFamily;
use tsue_bench::{print_table, ssd_replay};

fn main() {
    let mut rows = Vec::new();
    for family in [TraceFamily::AliCloud, TraceFamily::TenCloud] {
        let fam_name = match family {
            TraceFamily::AliCloud => "Ali-Cloud",
            TraceFamily::TenCloud => "Ten-Cloud",
            _ => unreachable!(),
        };
        let mut rcfg = ssd_replay(12, 4, Arc::new(Tsue), family, 16);
        rcfg.ops_per_client = tsue_bench::ops_per_client() * 2;
        let res = Replay::run(&rcfg).result;
        for (layer, r) in [
            ("DATA_LOG", res.data_residency),
            ("DELTA_LOG", res.delta_residency),
            ("PARITY_LOG", res.parity_residency),
        ] {
            rows.push(vec![
                fam_name.to_string(),
                layer.to_string(),
                format!("{:.0}", r.append_us),
                format!("{:.0}", r.buffer_us),
                format!("{:.0}", r.recycle_us),
            ]);
        }
        let total = res.data_residency.total_us()
            + res.delta_residency.total_us()
            + res.parity_residency.total_us();
        rows.push(vec![
            fam_name.to_string(),
            "TOTAL".to_string(),
            String::new(),
            String::new(),
            format!("{total:.0}"),
        ]);
    }
    print_table(
        "Table 2: time (us) data resides in each log layer (TSUE, RS(12,4))",
        &["trace", "layer", "APPEND us", "BUFFER us", "RECYCLE us"],
        &rows,
    );
}
