//! Fig. 5 (a)–(l): update throughput vs number of clients, for six RS codes
//! × {Ali-Cloud, Ten-Cloud} × six methods on the 16-node SSD cluster.
//!
//! The paper's claims this reproduces: TSUE is highest everywhere, its
//! advantage grows with M (≈1.5× FO at M=2 → ≈2.9× at M=4), and throughput
//! scales with client count. The paper also reports the advantage larger
//! on Ten-Cloud than Ali-Cloud; the bench prints both families, and that
//! ordering is not reproduced here (an open fidelity row in ROADMAP.md).

use std::sync::Arc;

use traces::TraceFamily;
use tsue_bench::{fig5_codes, fig5_methods, kfmt, print_table, run_grid, ssd_replay};

fn main() {
    let clients = if tsue_bench::full_scale() {
        vec![4u64, 8, 16, 32, 64]
    } else {
        vec![4u64, 16, 64]
    };
    let mut subplot = b'a';
    for &(k, m) in &fig5_codes() {
        for family in [TraceFamily::AliCloud, TraceFamily::TenCloud] {
            let fam_name = match family {
                TraceFamily::AliCloud => "Ali-Cloud",
                TraceFamily::TenCloud => "Ten-Cloud",
                _ => unreachable!(),
            };
            // One subplot's method x clients grid replays in parallel.
            let configs: Vec<_> = fig5_methods()
                .iter()
                .flat_map(|method| {
                    clients
                        .iter()
                        .map(move |&c| ssd_replay(k, m, Arc::clone(method), family, c))
                })
                .collect();
            let results = run_grid(&configs);

            let mut rows = Vec::new();
            let mut tsue_by_clients: Vec<f64> = Vec::new();
            let mut fo_by_clients: Vec<f64> = Vec::new();
            for chunk in results.chunks(clients.len()) {
                let method = chunk[0].method.as_str();
                let mut row = vec![method.to_string()];
                for res in chunk {
                    assert_eq!(
                        res.oracle_violations, 0,
                        "consistency violated: {method} RS({k},{m})"
                    );
                    row.push(kfmt(res.update_iops));
                    match method {
                        "TSUE" => tsue_by_clients.push(res.update_iops),
                        "FO" => fo_by_clients.push(res.update_iops),
                        _ => {}
                    }
                }
                rows.push(row);
            }
            let headers: Vec<String> = std::iter::once("method".to_string())
                .chain(clients.iter().map(|c| format!("{c} clients")))
                .collect();
            let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            print_table(
                &format!(
                    "Fig. 5({}) RS({k},{m}) {fam_name}: update IOPS vs clients",
                    subplot as char
                ),
                &header_refs,
                &rows,
            );
            // Paper shape note: TSUE/FO ratio at the largest client count.
            if let (Some(t), Some(f)) = (tsue_by_clients.last(), fo_by_clients.last()) {
                println!(
                    "  -> TSUE/FO at {} clients: {:.2}x",
                    clients.last().unwrap(),
                    t / f
                );
            }
            subplot += 1;
        }
    }
}
