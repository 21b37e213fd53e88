//! Topology × placement × method sweep: the scenario the paper's
//! single-switch testbeds cannot show.
//!
//! Replays the same Ali-Cloud workload on (a) the flat one-rack fabric and
//! (b) a 4-rack fabric with an oversubscribed spine, under each placement
//! policy, and reports total vs cross-rack traffic and throughput.
//!
//! Expected shape:
//! * flat fabric: placements are indistinguishable (all degenerate to the
//!   same rotation) and cross-rack traffic is zero;
//! * racked fabric: placement visibly moves the spine traffic, and *who*
//!   wins depends on the method's traffic pattern. TSUE's back end flows
//!   parity→parity (DeltaLog combine, then fan-out to the ParityLogs), so
//!   `rack-local` keeps that leg behind one ToR switch — the clustered
//!   network-coding argument — and crosses the spine least. Methods whose
//!   parity deltas all originate at the data node (FO, PL) gain nothing
//!   from a co-racked parity group: the data node never shares the parity
//!   rack, so every delta crosses the spine and `rack-aware` (which lets
//!   some parity land in the data node's rack) is slightly cheaper.

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::{kfmt, print_table, run_grid, ssd_replay, BenchReport};

const RACKS: usize = 4;
const OVERSUB: f64 = 4.0;

fn sweep_replay(
    method: Arc<dyn UpdateMethod>,
    placement: Arc<dyn PlacementPolicy>,
    racks: usize,
) -> ReplayConfig {
    let clients = if tsue_bench::smoke() { 8 } else { 16 };
    let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
    r.cluster.racks = racks;
    r.cluster.oversubscription = if racks > 1 { OVERSUB } else { 1.0 };
    r.cluster.placement = placement;
    r
}

fn main() {
    let methods: [Arc<dyn UpdateMethod>; 3] = [Arc::new(Fo), Arc::new(Pl), Arc::new(Tsue)];
    let placements: [Arc<dyn PlacementPolicy>; 3] = [
        Arc::new(FlatRotate),
        Arc::new(RackAware),
        Arc::new(RackLocal),
    ];

    let mut grid = Vec::new();
    for racks in [1usize, RACKS] {
        for placement in &placements {
            for method in &methods {
                grid.push(sweep_replay(
                    Arc::clone(method),
                    Arc::clone(placement),
                    racks,
                ));
            }
        }
    }
    let results = run_grid(&grid);
    let labels: Vec<(usize, &str, &str)> = grid
        .iter()
        .map(|r| {
            (
                r.cluster.racks,
                r.cluster.placement.name(),
                r.cluster.method.name(),
            )
        })
        .collect();

    let mut report = BenchReport::new("topo_sweep");
    let mut rows = Vec::new();
    for ((racks, placement, method), res) in labels.iter().zip(&results) {
        assert_eq!(
            res.oracle_violations, 0,
            "{method} under {placement} placement violated consistency"
        );
        let cells = vec![
            ("racks", (*racks).into()),
            ("placement", (*placement).into()),
            ("method", (*method).into()),
            ("update_iops", res.update_iops.into()),
            ("net_gib", res.net_gib.into()),
            ("cross_rack_gib", res.net_cross_rack_gib.into()),
        ];
        report.add_row(res, cells);
        rows.push(vec![
            if *racks == 1 {
                "1 (flat)".to_string()
            } else {
                format!("{racks} @ {OVERSUB}:1")
            },
            placement.to_string(),
            method.to_string(),
            kfmt(res.update_iops),
            format!("{:.2}", res.net_gib),
            format!("{:.2}", res.net_cross_rack_gib),
            format!(
                "{:.0}%",
                100.0 * res.net_cross_rack_gib / res.net_gib.max(1e-12)
            ),
        ]);
    }
    print_table(
        "Topology sweep: RS(6,3) Ali-Cloud, racks x placement x method",
        &[
            "racks",
            "placement",
            "method",
            "IOPS",
            "net GiB",
            "x-rack GiB",
            "x-rack %",
        ],
        &rows,
    );

    // Shape checks the sweep exists to demonstrate.
    let cross_of = |placement: &str, method: &str| {
        labels
            .iter()
            .zip(&results)
            .find(|((r, p, m), _)| *r == RACKS && *p == placement && *m == method)
            .map(|(_, res)| res.net_cross_rack_gib)
            .unwrap()
    };
    for method in methods.iter().map(|m| m.name()) {
        let aware = cross_of("rack-aware", method);
        let local = cross_of("rack-local", method);
        println!(
            "  -> {method}: rack-aware sends {:.2}x the spine traffic of rack-local",
            aware / local.max(1e-12)
        );
        assert!(
            (aware - local).abs() / aware.max(1e-12) > 0.02,
            "{method}: placement must move spine traffic measurably \
             (rack-aware {aware:.3} GiB vs rack-local {local:.3} GiB)"
        );
    }
    // The clustered-network-coding win: TSUE's parity→parity pipeline
    // stays in-rack under rack-local placement.
    let tsue_aware = cross_of("rack-aware", "TSUE");
    let tsue_local = cross_of("rack-local", "TSUE");
    assert!(
        tsue_local < tsue_aware,
        "TSUE: rack-local ({tsue_local:.3} GiB) must cross the spine less \
         than rack-aware ({tsue_aware:.3} GiB)"
    );
    for ((racks, _, _), res) in labels.iter().zip(&results) {
        if *racks == 1 {
            assert_eq!(
                res.net_cross_rack_gib, 0.0,
                "flat fabric must never cross the spine"
            );
        }
    }
    println!("\n(flat rows are identical across placements: every built-in");
    println!(" placement degenerates to the same rotation on one rack.)");

    // Headline findings: TSUE's spine traffic per placement on the racked
    // fabric.
    report.add_finding("tsue_cross_gib_rack_aware", tsue_aware);
    report.add_finding("tsue_cross_gib_rack_local", tsue_local);
    report.write_and_announce();
}
