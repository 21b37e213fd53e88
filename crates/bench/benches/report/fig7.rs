//! Fig. 7: contribution breakdown — Baseline, +O1 (DataLog locality),
//! +O2 (ParityLog locality), +O3 (log pool), +O4 (4 pools/SSD),
//! +O5 (DeltaLog) — for Ali-Cloud and Ten-Cloud at RS(6,2/3/4).
//!
//! Paper claims: O1 contributes more than O2; O3 (the log pool) is the
//! largest single jump; O4 is minimal; O5 adds ~30%.

use std::sync::Arc;

use ecfs::methods::Tsue;
use ecfs::TsueFeatures;
use traces::TraceFamily;
use tsue_bench::sweep::{Results, Sweep};
use tsue_bench::{kfmt, print_table, ssd_replay, BenchReport};

/// A cell: the workload (`<family>_RS(6,<m>)`) and the ladder rung.
type Label = (String, &'static str);
type Column = tsue_bench::sweep::Column<Label>;

const TITLE: &str = "Fig. 7: TSUE breakdown (update IOPS per cumulative optimisation)";

pub fn sweep() -> Sweep<Label> {
    let mut cells = Vec::new();
    for (family, fam_name) in [
        (TraceFamily::AliCloud, "AliCloud"),
        (TraceFamily::TenCloud, "TenCloud"),
    ] {
        for m in [2usize, 3, 4] {
            for (rung, feats) in TsueFeatures::ladder() {
                let mut rcfg = ssd_replay(6, m, Arc::new(Tsue), family, 48);
                rcfg.cluster.tsue = feats;
                // Smaller units so the recycle pipeline is active during the
                // (simulation-scale) run; the paper's 16 MiB units assume
                // minute-long runs.
                rcfg.cluster.tsue_unit_bytes = 2 << 20;
                cells.push(((format!("{fam_name}_RS(6,{m})"), rung), rcfg));
            }
        }
    }
    Sweep::new("fig7", TITLE, cells, check).columns([
        Column::key("workload", |r| r.label.0.clone()),
        Column::key("rung", |r| r.label.1),
        Column::key("update_iops", |r| r.res.update_iops),
    ])
}

/// Prints the workload × rung table.
fn check(results: &Results<Label>, _: &mut BenchReport) {
    let ladder = TsueFeatures::ladder();
    let rows: Vec<Vec<String>> = results
        .cells
        .chunks(ladder.len())
        .map(|run| {
            let ((workload, _), _) = &run[0];
            let iops = run.iter().map(|(_, out)| kfmt(out.result.update_iops));
            std::iter::once(workload.clone()).chain(iops).collect()
        })
        .collect();
    let headers: Vec<&str> = std::iter::once("workload")
        .chain(ladder.map(|(rung, _)| rung))
        .collect();
    print_table(TITLE, &headers, &rows);
    println!("\nO1=DataLog locality, O2=ParityLog locality, O3=log pool,");
    println!("O4=4 pools per SSD, O5=DeltaLog (Eq. 5 cross-block merge).");
}
