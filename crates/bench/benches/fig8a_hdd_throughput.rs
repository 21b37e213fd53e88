//! Fig. 8a: HDD-cluster update throughput across the seven MSR-Cambridge
//! volumes under RS(6,4), methods FO/PL/PLR/PARIX/TSUE (the paper omits
//! CoRD on HDDs; TSUE runs without the DeltaLog there).
//!
//! Paper claims: TSUE is best on every volume — up to 16.2× FO, 4× PL,
//! 9.1× PLR, 3.6× PARIX; FO is the *worst* method on HDDs (every update is
//! a seek storm), inverting the SSD ordering.

use std::sync::Arc;

use ecfs::Replay;
use traces::workload::MsrVolume;
use traces::TraceFamily;
use tsue_bench::{fig5_methods, hdd_replay, kfmt, print_table};

fn main() {
    let methods: Vec<_> = fig5_methods()
        .into_iter()
        .filter(|m| m.name() != "CoRD")
        .collect();
    let mut rows = Vec::new();
    let mut best_ratio_fo = 0.0f64;
    for volume in MsrVolume::ALL {
        let mut row = vec![volume.name().to_string()];
        let mut fo = 0.0;
        let mut tsue = 0.0;
        for method in &methods {
            let rcfg = hdd_replay(6, 4, Arc::clone(method), TraceFamily::Msr(volume), 16);
            let res = Replay::run(&rcfg).result;
            assert_eq!(res.oracle_violations, 0);
            row.push(kfmt(res.update_iops));
            match method.name() {
                "FO" => fo = res.update_iops,
                "TSUE" => tsue = res.update_iops,
                _ => {}
            }
        }
        best_ratio_fo = best_ratio_fo.max(tsue / fo.max(1e-9));
        rows.push(row);
    }
    print_table(
        "Fig. 8a: HDD update throughput (IOPS) per MSR volume, RS(6,4)",
        &["volume", "FO", "PL", "PLR", "PARIX", "TSUE"],
        &rows,
    );
    println!("\nmax TSUE/FO across volumes: {best_ratio_fo:.1}x (paper: up to 16.2x)");
}
