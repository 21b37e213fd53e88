//! Fault sweep: method × placement × fault plan on the live timeline —
//! the availability experiment the paper's post-replay drills cannot
//! show.
//!
//! Each cell replays the same Ali-Cloud workload on a 4-rack fabric and
//! injects a mid-replay failure per the plan; the repair scheduler's
//! rebuild streams share the disks and fabric with the still-running
//! clients. Reported per cell: throughput, MTTR (failure → last block
//! rebuilt, including the §2.3.2 log-replay gate), repair traffic,
//! degraded reads, and foreground p99 inside the degraded window vs
//! steady state — for updates *and* for reads (the availability SLO:
//! a read inside a degraded window may pay a k-survivor decode).
//!
//! Measured shape, `rack@40ms` under rack-aware placement. MTTR in ms,
//! FO / PL / PLR / TSUE:
//!
//! * smoke scale: 280 / 380 / 251 / 579;
//! * default scale: 347 / 449 / 319 / 348.
//!
//! PLR recovers fastest at both scales and TSUE slowest at smoke scale,
//! so TSUE's real-time recycling does not show as a shorter MTTR here.
//! The §2.3.2 gate before reconstruction replays every node's
//! outstanding log backlog, not only the lost stripes' entries; ROADMAP
//! item 5 scopes that drain. TSUE's degraded-window update p99 is 16.8 ms
//! at smoke scale against FO's 33.6 ms and PL's and PLR's 67.1 ms; at
//! default scale it ties FO at 33.6 ms and stays 2x below PL and PLR.
//! The check asserts TSUE's p99 is no higher than each and its
//! throughput strictly higher, and that TSUE's rack cell both decodes
//! degraded reads and rebuilds blocks through the repair scheduler.

use ecfs::prelude::*;
use simdes::units::MILLIS;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, kilo, plain, Results, Sweep};
use tsue_bench::{ssd_replay, BenchReport};

const RACKS: usize = 4;
const OVERSUB: f64 = 2.0;

/// The fault plans, by name: none, a node failure, and a rack failure.
fn plans() -> [(&'static str, FaultPlan); 3] {
    let (at, delay) = (40 * MILLIS, 10 * MILLIS);
    let rack = FaultPlan::new().fail_rack(at, 1);
    [
        ("none", FaultPlan::new()),
        ("node@40ms", FaultPlan::new().fail_node(at, 5)),
        ("rack@40ms", rack.with_recovery_delay(delay)),
    ]
}

/// A cell: method, placement, fault plan.
type Label = (String, String, &'static str);
type Column = tsue_bench::sweep::Column<Label>;

pub fn sweep() -> Sweep<Label> {
    let methods: [Method; 4] = [Method::Fo, Method::Pl, Method::Plr, Method::Tsue];
    let clients = if tsue_bench::smoke() { 8 } else { 16 };
    let mut cells = Vec::new();
    for (plan_name, plan) in plans() {
        for &method in &methods {
            // Rack failures need the rack-aware stripe budget to stay
            // recoverable; node failures also run under the topology-blind
            // default to show placement does not change single-node MTTR.
            let placements = match plan_name {
                "node@40ms" => vec![Placement::FlatRotate, Placement::RackAware],
                _ => vec![Placement::RackAware],
            };
            for placement in placements {
                let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
                r.cluster.racks = RACKS;
                r.cluster.oversubscription = OVERSUB;
                r.cluster.placement = placement;
                r.faults = plan.clone();
                let (m, p) = (method.name().to_string(), placement.name().to_string());
                cells.push(((m, p, plan_name), r));
            }
        }
    }
    let title = "Fault sweep: RS(6,3) Ali-Cloud, 4 racks @ 2:1, mid-replay failures";
    Sweep::new("fault", title, cells, check).columns([
        Column::key("method", |r| r.label.0.clone()).show("method", plain),
        Column::key("placement", |r| r.label.1.clone()).show("placement", plain),
        Column::key("fault", |r| r.label.2).show("fault", plain),
        Column::key("update_iops", |r| r.res.update_iops).show("IOPS", kilo),
        Column::key("mttr_ms", |r| r.res.mttr_s * 1e3).show("MTTR ms", fixed::<1>),
        Column::key("rebuilt", |r| rebuilt(r.res)).show("rebuilt", plain),
        Column::key("repair_gib", |r| r.res.net_repair_gib).show("repair GiB", fixed::<2>),
        Column::key("degraded_reads", |r| r.res.degraded_reads).show("deg reads", plain),
        Column::key("steady_p99_us", |r| r.res.steady_p99_us).show("p99 us", fixed::<0>),
        Column::key("degraded_p99_us", |r| r.res.degraded_p99_us).show("deg p99 us", fixed::<0>),
        Column::key("steady_read_p99_us", |r| r.res.steady_read_p99_us)
            .show("rd p99 us", fixed::<0>),
        Column::key("degraded_read_p99_us", |r| r.res.degraded_read_p99_us)
            .show("deg rd p99 us", fixed::<0>),
        // Blast radius: how many distinct co-location sets the run's
        // stripes (post-rebuild) span.
        Column::key("copysets_used", |r| r.res.copysets_used),
    ])
}

/// Blocks rebuilt by the repair scheduler or inline.
fn rebuilt(res: &RunResult) -> u64 {
    res.repaired_blocks + res.inline_rebuilds
}

fn check(results: &Results<Label>, report: &mut BenchReport) {
    for ((method, placement, plan), res) in results.iter() {
        assert_eq!(res.data_loss_blocks, 0, "sweep scenarios are recoverable");
        assert_eq!(res.failed_ops, 0);
        // Repair always completes under the default (unthrottled) policy.
        if *plan != "none" {
            assert!(
                res.mttr_s.is_finite() && res.mttr_s > 0.0,
                "{method}/{placement}/{plan}: MTTR {} s is not finite and positive",
                res.mttr_s
            );
        }
    }
    let cell = |method: &str, plan: &str| {
        results.get(|(m, p, pl)| m == method && *pl == plan && p == "rack-aware")
    };

    // Shape checks the sweep exists to demonstrate.
    for method in ["FO", "PL", "PLR", "TSUE"] {
        let baseline = cell(method, "none");
        assert_eq!(baseline.mttr_s, 0.0, "no faults, no MTTR");
        assert_eq!(rebuilt(baseline), 0);
        assert_eq!(baseline.net_repair_gib, 0.0);
        // Without faults the read SLO split degenerates: everything is
        // steady state.
        assert_eq!(baseline.degraded_read_p99_us, 0.0, "{method}");
        assert_eq!(
            baseline.steady_read_p99_us, baseline.read_p99_us,
            "{method}"
        );
        // A rack failure makes some reads pay the k-survivor decode: the
        // degraded-window read p99 must not undercut steady state while
        // degraded reads actually happened.
        let rack = cell(method, "rack@40ms");
        if rack.degraded_reads > 0 {
            assert!(
                rack.degraded_read_p99_us >= rack.steady_read_p99_us,
                "{method}: degraded-window read p99 ({:.0} us) below steady ({:.0} us)",
                rack.degraded_read_p99_us,
                rack.steady_read_p99_us
            );
        }
        let node = cell(method, "node@40ms");
        assert!(rebuilt(node) > 0);
        assert!(node.mttr_s > 0.0);
        assert!(
            rebuilt(rack) > rebuilt(node),
            "{method}: a rack loses more blocks than a node"
        );
    }

    // The log-layer absorption claim: while the rack rebuild storms the
    // fabric, TSUE's clients only touch the sequential DataLog append on
    // the critical path, so their p99 inside the degraded window stays
    // far below the in-place/deferred methods whose foreground I/O queues
    // directly behind the repair streams.
    let tsue = cell("TSUE", "rack@40ms");
    // The rack failure exercises both halves of the fault path under
    // TSUE: reads of lost blocks decode from survivors, and the repair
    // scheduler (not only inline rebuilds) restores the blocks.
    assert!(
        tsue.degraded_reads > 0,
        "TSUE/rack-aware/rack@40ms: no read took the degraded path"
    );
    assert!(
        tsue.repaired_blocks > 0,
        "TSUE/rack-aware/rack@40ms: the repair scheduler rebuilt no block"
    );
    println!();
    for method in ["FO", "PL", "PLR"] {
        let other = cell(method, "rack@40ms");
        println!(
            "  -> rebuild interference: TSUE degraded p99 {:.1} ms vs {} {:.1} ms \
             ({:.1}x absorbed); MTTR {:.0} ms vs {:.0} ms",
            tsue.degraded_p99_us / 1e3,
            method,
            other.degraded_p99_us / 1e3,
            other.degraded_p99_us / tsue.degraded_p99_us.max(1e-12),
            tsue.mttr_s * 1e3,
            other.mttr_s * 1e3,
        );
        // <= because the log2-bucketed histogram can collapse a tie into
        // one bucket; the strict separation is asserted on throughput.
        assert!(
            tsue.degraded_p99_us <= other.degraded_p99_us,
            "TSUE must absorb the rebuild interference at least as well as {method}: \
             {:.0} us vs {:.0} us",
            tsue.degraded_p99_us,
            other.degraded_p99_us
        );
        assert!(
            tsue.update_iops > other.update_iops,
            "TSUE must out-serve {method} during the rebuild window"
        );
    }

    report.add_finding("tsue_degraded_p99_us", tsue.degraded_p99_us);
    report.add_finding("tsue_rack_mttr_ms", tsue.mttr_s * 1e3);
}
