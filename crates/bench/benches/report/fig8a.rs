//! Fig. 8a: HDD-cluster update throughput across the seven MSR-Cambridge
//! volumes under RS(6,4), methods FO/PL/PLR/PARIX/TSUE (the paper omits
//! CoRD on HDDs; TSUE runs without the DeltaLog there).
//!
//! Paper claims: TSUE is best on every volume — up to 16.2× FO, 4× PL,
//! 9.1× PLR, 3.6× PARIX; FO is the *worst* method on HDDs (every update is
//! a seek storm), inverting the SSD ordering.

use traces::workload::MsrVolume;
use traces::TraceFamily;
use tsue_bench::sweep::{Results, Sweep};
use tsue_bench::{fig5_methods, hdd_replay, kfmt, print_table, BenchReport};

/// The methods of Fig. 8a: Fig. 5's without CoRD.
const METHODS: [&str; 5] = ["FO", "PL", "PLR", "PARIX", "TSUE"];

/// A cell: the MSR volume's name.
type Label = &'static str;
type Column = tsue_bench::sweep::Column<Label>;

const TITLE: &str = "Fig. 8a: HDD update throughput (IOPS) per MSR volume, RS(6,4)";

pub fn sweep() -> Sweep<Label> {
    let mut cells = Vec::new();
    for volume in MsrVolume::ALL {
        for method in fig5_methods() {
            if METHODS.contains(&method.name()) {
                let rcfg = hdd_replay(6, 4, method, TraceFamily::Msr(volume), 16);
                cells.push((volume.name(), rcfg));
            }
        }
    }
    Sweep::new("fig8a", TITLE, cells, check).columns([
        Column::key("volume", |r| *r.label),
        Column::key("method", |r| r.res.method.clone()),
        Column::key("update_iops", |r| r.res.update_iops),
    ])
}

/// Prints the volume × method table and records the best TSUE/FO ratio.
fn check(results: &Results<Label>, report: &mut BenchReport) {
    let mut rows = Vec::new();
    let mut best_ratio_fo = 0.0f64;
    for run in results.cells.chunks(METHODS.len()) {
        let runs = run.iter().map(|(_, out)| &out.result);
        let iops = |m: &str| {
            runs.clone()
                .find(|res| res.method == m)
                .unwrap()
                .update_iops
        };
        best_ratio_fo = best_ratio_fo.max(iops("TSUE") / iops("FO").max(1e-9));
        let cells = runs.map(|res| kfmt(res.update_iops));
        rows.push(std::iter::once(run[0].0.to_string()).chain(cells).collect());
    }
    let headers: Vec<&str> = std::iter::once("volume").chain(METHODS).collect();
    print_table(TITLE, &headers, &rows);
    println!("\nmax TSUE/FO across volumes: {best_ratio_fo:.1}x (paper: up to 16.2x)");
    report.add_finding("max_tsue_over_fo", best_ratio_fo);
}
