//! Fig. 7: contribution breakdown — Baseline, +O1 (DataLog locality),
//! +O2 (ParityLog locality), +O3 (log pool), +O4 (4 pools/SSD),
//! +O5 (DeltaLog) — for Ali-Cloud and Ten-Cloud at RS(6,2/3/4).
//!
//! Paper claims: O1 contributes more than O2; O3 (the log pool) is the
//! largest single jump; O4 is minimal; O5 adds ~30%.

use std::sync::Arc;

use ecfs::methods::Tsue;
use ecfs::{Replay, TsueFeatures};
use traces::TraceFamily;
use tsue_bench::{kfmt, print_table, ssd_replay};

fn main() {
    let mut rows = Vec::new();
    let ladder = TsueFeatures::ladder();
    for family in [TraceFamily::AliCloud, TraceFamily::TenCloud] {
        let fam_name = match family {
            TraceFamily::AliCloud => "AliCloud",
            TraceFamily::TenCloud => "TenCloud",
            _ => unreachable!(),
        };
        for m in [2usize, 3, 4] {
            let mut row = vec![format!("{fam_name}_RS(6,{m})")];
            for (label, feats) in ladder {
                let mut rcfg = ssd_replay(6, m, Arc::new(Tsue), family, 48);
                rcfg.cluster.tsue = feats;
                // Smaller units so the recycle pipeline is active during the
                // (simulation-scale) run; the paper's 16 MiB units assume
                // minute-long runs.
                rcfg.cluster.tsue_unit_bytes = 2 << 20;
                let res = Replay::run(&rcfg).result;
                assert_eq!(res.oracle_violations, 0, "{label} violated consistency");
                row.push(kfmt(res.update_iops));
            }
            rows.push(row);
        }
    }
    print_table(
        "Fig. 7: TSUE breakdown (update IOPS per cumulative optimisation)",
        &["workload", "Baseline", "O1", "O2", "O3", "O4", "O5"],
        &rows,
    );
    println!("\nO1=DataLog locality, O2=ParityLog locality, O3=log pool,");
    println!("O4=4 pools per SSD, O5=DeltaLog (Eq. 5 cross-block merge).");
}
