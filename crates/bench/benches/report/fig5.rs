//! Fig. 5 (a)–(l): update throughput vs number of clients, for six RS codes
//! × {Ali-Cloud, Ten-Cloud} × six methods on the 16-node SSD cluster.
//!
//! The paper's claims this reproduces: TSUE is highest everywhere, its
//! advantage grows with M (≈1.5× FO at M=2 → ≈2.9× at M=4), and throughput
//! scales with client count. The paper also reports the advantage larger
//! on Ten-Cloud than Ali-Cloud; the bench prints both families, and that
//! ordering is not reproduced here (an open fidelity row in ROADMAP.md).

use traces::TraceFamily;
use tsue_bench::sweep::{Results, Sweep};
use tsue_bench::{fig5_codes, fig5_methods, kfmt, print_table, ssd_replay, BenchReport};

/// A cell: RS(k, m), the trace family's name, the client count.
type Label = (usize, usize, &'static str, u64);
type Column = tsue_bench::sweep::Column<Label>;

const FAMILIES: [(TraceFamily, &str); 2] = [
    (TraceFamily::AliCloud, "Ali-Cloud"),
    (TraceFamily::TenCloud, "Ten-Cloud"),
];

fn clients() -> Vec<u64> {
    if tsue_bench::full_scale() {
        vec![4, 8, 16, 32, 64]
    } else {
        vec![4, 16, 64]
    }
}

pub fn sweep() -> Sweep<Label> {
    let mut cells = Vec::new();
    for (k, m) in fig5_codes() {
        for (family, fam_name) in FAMILIES {
            for method in fig5_methods() {
                for c in clients() {
                    let rcfg = ssd_replay(k, m, method, family, c);
                    cells.push(((k, m, fam_name, c), rcfg));
                }
            }
        }
    }
    let title = "Fig. 5: update IOPS vs clients";
    Sweep::new("fig5", title, cells, check).columns([
        Column::key("code", |r| format!("RS({},{})", r.label.0, r.label.1)),
        Column::key("family", |r| r.label.2),
        Column::key("method", |r| r.res.method.clone()),
        Column::key("clients", |r| r.label.3),
        Column::key("update_iops", |r| r.res.update_iops),
    ])
}

/// Prints one method × clients table per subplot, with TSUE/FO at the
/// largest client count (recorded per subplot).
fn check(results: &Results<Label>, report: &mut BenchReport) {
    let clients = clients();
    let headers: Vec<String> = std::iter::once("method".to_string())
        .chain(clients.iter().map(|c| format!("{c} clients")))
        .collect();
    let subplots = results.cells.chunks(fig5_methods().len() * clients.len());
    for (subplot, cells) in (b'a'..).zip(subplots) {
        let (k, m, fam_name, _) = cells[0].0;
        let rows: Vec<Vec<String>> = cells
            .chunks(clients.len())
            .map(|run| {
                let iops = run.iter().map(|(_, out)| kfmt(out.result.update_iops));
                std::iter::once(run[0].1.result.method.clone())
                    .chain(iops)
                    .collect()
            })
            .collect();
        let subplot = subplot as char;
        let title = format!("Fig. 5({subplot}) RS({k},{m}) {fam_name}: update IOPS vs clients");
        print_table(&title, &headers, &rows);
        // Paper shape note: TSUE/FO ratio at the largest client count.
        let top = |method: &str| {
            let mut runs = cells.iter().rev().map(|(_, out)| &out.result);
            runs.find(|res| res.method == method).unwrap().update_iops
        };
        let (most, ratio) = (clients.last().unwrap(), top("TSUE") / top("FO"));
        println!("  -> TSUE/FO at {most} clients: {ratio:.2}x");
        report.add_finding(&format!("tsue_over_fo_{subplot}"), ratio);
    }
}
