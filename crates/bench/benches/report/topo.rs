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
use tsue_bench::sweep::{fixed, kilo, plain, Results, Sweep};
use tsue_bench::{ssd_replay, BenchReport};

const RACKS: usize = 4;
const OVERSUB: f64 = 4.0;

/// A cell: racks, placement, method.
type Label = (usize, String, String);
type Column = tsue_bench::sweep::Column<Label>;

pub fn sweep() -> Sweep<Label> {
    let methods: [Arc<dyn UpdateMethod>; 3] = [Arc::new(Fo), Arc::new(Pl), Arc::new(Tsue)];
    let placements: [Arc<dyn PlacementPolicy>; 3] = [
        Arc::new(FlatRotate),
        Arc::new(RackAware),
        Arc::new(RackLocal),
    ];
    let clients = if tsue_bench::smoke() { 8 } else { 16 };
    let mut cells = Vec::new();
    for racks in [1usize, RACKS] {
        for placement in &placements {
            for method in &methods {
                let mut r = ssd_replay(6, 3, Arc::clone(method), TraceFamily::AliCloud, clients);
                r.cluster.racks = racks;
                r.cluster.oversubscription = if racks > 1 { OVERSUB } else { 1.0 };
                r.cluster.placement = Arc::clone(placement);
                let (p, m) = (placement.name().to_string(), method.name().to_string());
                cells.push(((racks, p, m), r));
            }
        }
    }
    let title = "Topology sweep: RS(6,3) Ali-Cloud, racks x placement x method";
    Sweep::new("topo", title, cells, check).columns([
        Column::key("racks", |r| r.label.0).show("racks", |v| match v.as_f64() {
            Some(racks) if racks > 1.0 => format!("{racks} @ {OVERSUB}:1"),
            _ => "1 (flat)".to_string(),
        }),
        Column::key("placement", |r| r.label.1.clone()).show("placement", plain),
        Column::key("method", |r| r.label.2.clone()).show("method", plain),
        Column::key("update_iops", |r| r.res.update_iops).show("IOPS", kilo),
        Column::key("net_gib", |r| r.res.net_gib).show("net GiB", fixed::<2>),
        Column::key("cross_rack_gib", |r| r.res.net_cross_rack_gib).show("x-rack GiB", fixed::<2>),
        Column::shown(
            "x-rack %",
            |v| format!("{}%", fixed::<0>(v)),
            |r| 100.0 * r.res.net_cross_rack_gib / r.res.net_gib.max(1e-12),
        ),
    ])
}

/// Shape checks the sweep exists to demonstrate.
fn check(results: &Results<Label>, report: &mut BenchReport) {
    let cross_of = |placement: &str, method: &str| {
        results
            .get(|(r, p, m)| *r == RACKS && p == placement && m == method)
            .net_cross_rack_gib
    };
    for method in ["FO", "PL", "TSUE"] {
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
    for ((racks, _, _), res) in results.iter() {
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
}
