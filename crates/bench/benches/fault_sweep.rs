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
//! Expected shape: TSUE's real-time recycling leaves almost no log
//! backlog to replay before reconstruction, so its MTTR stays near the
//! raw rebuild time; PL/PLR pay their deferred logs first and FO pays
//! nothing but suffers the full rebuild interference on its random-I/O
//! foreground path.

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::{kfmt, print_table, run_grid, ssd_replay, BenchReport};

const RACKS: usize = 4;
const OVERSUB: f64 = 2.0;

#[derive(Clone, Copy, PartialEq)]
enum Plan {
    None,
    Node,
    Rack,
}

impl Plan {
    fn name(self) -> &'static str {
        match self {
            Plan::None => "none",
            Plan::Node => "node@40ms",
            Plan::Rack => "rack@40ms",
        }
    }

    fn build(self) -> FaultPlan {
        let at = 40 * simdes::units::MILLIS;
        match self {
            Plan::None => FaultPlan::new(),
            Plan::Node => FaultPlan::new().fail_node(at, 5),
            Plan::Rack => FaultPlan::new()
                .fail_rack(at, 1)
                .with_recovery_delay(10 * simdes::units::MILLIS),
        }
    }
}

fn sweep_replay(
    method: Arc<dyn UpdateMethod>,
    placement: Arc<dyn PlacementPolicy>,
    plan: Plan,
) -> ReplayConfig {
    let clients = if tsue_bench::smoke() { 8 } else { 16 };
    let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
    r.cluster.racks = RACKS;
    r.cluster.oversubscription = OVERSUB;
    r.cluster.placement = placement;
    r.faults = plan.build();
    r
}

fn main() {
    let methods: [Arc<dyn UpdateMethod>; 4] =
        [Arc::new(Fo), Arc::new(Pl), Arc::new(Plr), Arc::new(Tsue)];
    let flat: Arc<dyn PlacementPolicy> = Arc::new(FlatRotate);
    let aware: Arc<dyn PlacementPolicy> = Arc::new(RackAware);
    let plans = [Plan::None, Plan::Node, Plan::Rack];

    let mut grid = Vec::new();
    let mut labels = Vec::new();
    for plan in plans {
        for method in &methods {
            // Rack failures need the rack-aware stripe budget to stay
            // recoverable; node failures also run under the topology-blind
            // default to show placement does not change single-node MTTR.
            let placements = match plan {
                Plan::Node => vec![&flat, &aware],
                _ => vec![&aware],
            };
            for placement in placements {
                grid.push(sweep_replay(
                    Arc::clone(method),
                    Arc::clone(placement),
                    plan,
                ));
                labels.push((method.name(), placement.name(), plan));
            }
        }
    }
    let results = run_grid(&grid);

    let mut report = BenchReport::new("fault_sweep");
    let mut rows = Vec::new();
    for ((method, placement, plan), res) in labels.iter().zip(&results) {
        assert_eq!(
            res.oracle_violations,
            0,
            "{method} under {:?} fault plan violated consistency",
            plan.name()
        );
        assert_eq!(res.data_loss_blocks, 0, "sweep scenarios are recoverable");
        assert_eq!(res.failed_ops, 0);
        // Repair always completes under the default (unthrottled) policy.
        if *plan != Plan::None {
            assert!(
                res.mttr_s.is_finite() && res.mttr_s > 0.0,
                "{method}/{placement}/{}: MTTR {} s is not finite and positive",
                plan.name(),
                res.mttr_s
            );
        }
        let cells = vec![
            ("method", (*method).into()),
            ("placement", (*placement).into()),
            ("fault", plan.name().into()),
            ("update_iops", res.update_iops.into()),
            ("mttr_ms", (res.mttr_s * 1e3).into()),
            (
                "rebuilt",
                (res.repaired_blocks + res.inline_rebuilds).into(),
            ),
            ("repair_gib", res.net_repair_gib.into()),
            ("degraded_reads", res.degraded_reads.into()),
            ("steady_p99_us", res.steady_p99_us.into()),
            ("degraded_p99_us", res.degraded_p99_us.into()),
            ("steady_read_p99_us", res.steady_read_p99_us.into()),
            ("degraded_read_p99_us", res.degraded_read_p99_us.into()),
            // Blast radius: how many distinct co-location sets the run's
            // stripes (post-rebuild) span.
            ("copysets_used", res.copysets_used.into()),
        ];
        report.add_row(res, cells);
        rows.push(vec![
            method.to_string(),
            placement.to_string(),
            plan.name().to_string(),
            kfmt(res.update_iops),
            format!("{:.1}", res.mttr_s * 1e3),
            format!("{}", res.repaired_blocks + res.inline_rebuilds),
            format!("{:.2}", res.net_repair_gib),
            format!("{}", res.degraded_reads),
            format!("{:.0}", res.steady_p99_us),
            format!("{:.0}", res.degraded_p99_us),
            format!("{:.0}", res.steady_read_p99_us),
            format!("{:.0}", res.degraded_read_p99_us),
        ]);
    }
    print_table(
        "Fault sweep: RS(6,3) Ali-Cloud, 4 racks @ 2:1, mid-replay failures",
        &[
            "method",
            "placement",
            "fault",
            "IOPS",
            "MTTR ms",
            "rebuilt",
            "repair GiB",
            "deg reads",
            "p99 us",
            "deg p99 us",
            "rd p99 us",
            "deg rd p99 us",
        ],
        &rows,
    );

    let cell = |method: &str, plan: Plan| {
        labels
            .iter()
            .zip(&results)
            .find(|((m, p, pl), _)| *m == method && *pl == plan && *p == aware.name())
            .map(|(_, res)| res)
            .unwrap()
    };

    // Shape checks the sweep exists to demonstrate.
    for method in methods.iter().map(|m| m.name()) {
        let baseline = cell(method, Plan::None);
        assert_eq!(baseline.mttr_s, 0.0, "no faults, no MTTR");
        assert_eq!(baseline.repaired_blocks + baseline.inline_rebuilds, 0);
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
        let rack = cell(method, Plan::Rack);
        if rack.degraded_reads > 0 {
            assert!(
                rack.degraded_read_p99_us >= rack.steady_read_p99_us,
                "{method}: degraded-window read p99 ({:.0} us) below steady ({:.0} us)",
                rack.degraded_read_p99_us,
                rack.steady_read_p99_us
            );
        }
        let node = cell(method, Plan::Node);
        assert!(node.repaired_blocks + node.inline_rebuilds > 0);
        assert!(node.mttr_s > 0.0);
        let rack = cell(method, Plan::Rack);
        assert!(
            rack.repaired_blocks + rack.inline_rebuilds
                > node.repaired_blocks + node.inline_rebuilds,
            "{method}: a rack loses more blocks than a node"
        );
    }
    // The log-layer absorption claim: while the rack rebuild storms the
    // fabric, TSUE's clients only touch the sequential DataLog append on
    // the critical path, so their p99 inside the degraded window stays
    // far below the in-place/deferred methods whose foreground I/O queues
    // directly behind the repair streams.
    let tsue = cell("TSUE", Plan::Rack);
    println!();
    for method in ["FO", "PL", "PLR"] {
        let other = cell(method, Plan::Rack);
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
    report.write_and_announce();
}
