//! Fig. 8b: recovery bandwidth after an update run on the HDD cluster —
//! terminate client traffic, fail one OSD, drain whatever logs remain, and
//! reconstruct the node's blocks from survivors.
//!
//! Paper claims: TSUE's recovery bandwidth is closest to FO's (no logs
//! pending — real-time recycling), while deferred-log methods must replay
//! logs first, depressing their effective recovery bandwidth.

use std::sync::Arc;

use ecfs::recovery::recover_node;
use ecfs::replay::run_update_phase;
use traces::workload::MsrVolume;
use traces::TraceFamily;
use tsue_bench::{fig5_methods, hdd_replay, print_table};

fn main() {
    let methods: Vec<_> = fig5_methods()
        .into_iter()
        .filter(|m| m.name() != "CoRD")
        .collect();
    let mut rows = Vec::new();
    for volume in MsrVolume::ALL {
        let mut row = vec![volume.name().to_string()];
        for method in &methods {
            let mut rcfg = hdd_replay(6, 4, Arc::clone(method), TraceFamily::Msr(volume), 8);
            // Large volumes: the rebuild must be node-scale (as in the
            // paper, which rebuilds a whole 2 TB node) so that residual-log
            // drains are measured *relative* to a real reconstruction.
            rcfg.volume_bytes = 512 << 20;
            rcfg.ops_per_client = 150;
            // Update phase ends with logs as the method left them; then one
            // node fails.
            let (mut sim, mut cl) = run_update_phase(&rcfg);
            let res = recover_node(&mut sim, &mut cl, 3);
            row.push(format!("{:.0}", res.bandwidth_mib_s));
        }
        rows.push(row);
    }
    print_table(
        "Fig. 8b: recovery bandwidth (MiB/s) per MSR volume, RS(6,4), HDD",
        &["volume", "FO", "PL", "PLR", "PARIX", "TSUE"],
        &rows,
    );
    println!("\n(Recovery time = log drain + reconstruction; TSUE ~ FO because");
    println!(" its logs are recycled in real time.)");
}
