//! Heterogeneous-fleet sweep: method × disk fleet × placement — the
//! experiment the single-model cluster could never run.
//!
//! Three fleets share one workload: the uniform all-flash testbed, a
//! tiered half-SSD/half-HDD fleet (the partial-refresh cluster Koh et
//! al.'s SSD-array study motivates), and a skewed all-flash fleet whose
//! node 0 carries a quarter-size drive. Placements cross the topology
//! default (`flat-rotate`) with `capacity-weighted`; a `copyset` trio on
//! the uniform fleet demonstrates the blast-radius budget.
//!
//! The question no prior sweep could ask: **does TSUE keep its Fig. 5
//! lead when its logs land on spinning disks while FO's parity can live
//! on flash?** On the tiered fleet a flat rotation scatters every
//! method's blocks (and log regions) across both tiers, so TSUE's
//! replicated DataLog appends regularly land on HDD nodes while half of
//! FO's in-place parity stays on flash. Expected shape: the lead *grows*
//! — TSUE's HDD traffic is sequential appends (cheap on a spindle),
//! while FO's random in-place updates pay seek + rotation on every
//! HDD-homed block.
//!
//! The skewed fleet isolates the capacity story: `flat-rotate` fills the
//! quarter-size disk ~4× faster than the rest (it would run out first);
//! `capacity-weighted` aligns fill fractions by shifting stripes onto the
//! big disks.

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, kilo, plain, Results, Sweep};
use tsue_bench::{ssd_replay, BenchReport};

const COPYSET_BUDGET: usize = 4;

/// A cell: fleet, placement, method.
type Label = (&'static str, String, String);
type Column = tsue_bench::sweep::Column<Label>;

fn fleets() -> Vec<(&'static str, DiskFleet)> {
    let skewed: Vec<DiskProfile> = (0..16)
        .map(|n| {
            if n == 0 {
                DiskProfile::ssd().with_capacity_mult(0.25)
            } else {
                DiskProfile::ssd()
            }
        })
        .collect();
    vec![
        ("uniform-ssd", DiskFleet::uniform_ssd()),
        ("tiered-8s+8h", DiskFleet::tiered(8, 8)),
        ("skewed-ssd", DiskFleet::explicit(skewed)),
    ]
}

pub fn sweep() -> Sweep<Label> {
    let methods: [Method; 3] = [Method::Fo, Method::Pl, Method::Tsue];
    let mut grid: Vec<(&str, DiskFleet, Placement)> = Vec::new();
    for (fleet_name, fleet) in fleets() {
        for placement in [Placement::FlatRotate, Placement::CapacityWeighted] {
            grid.push((fleet_name, fleet.clone(), placement));
        }
    }
    // The copyset trio: uniform fleet, blast radius capped at the budget.
    let copyset = Placement::Copyset {
        budget: COPYSET_BUDGET,
    };
    grid.push(("uniform-ssd", DiskFleet::uniform_ssd(), copyset));
    let clients = if tsue_bench::smoke() { 6 } else { 12 };
    let mut cells = Vec::new();
    for (fleet_name, fleet, placement) in grid {
        for &method in &methods {
            let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
            r.cluster.fleet = fleet.clone();
            r.cluster.placement = placement;
            // Small log units keep TSUE's real-time recycling active on the
            // HDD-homed log regions within a short run (cf. `hdd_replay`).
            r.cluster.tsue_unit_bytes = 1 << 20;
            // HDD random I/O is ~30x slower per op: half the ops keep
            // mixed-fleet cells short while the rate comparison stays
            // meaningful.
            r.ops_per_client = tsue_bench::ops_per_client() / 2;
            let (p, m) = (placement.name().to_string(), method.name().to_string());
            cells.push(((fleet_name, p, m), r));
        }
    }
    let title = "Hetero sweep: RS(6,3) Ali-Cloud, fleet x placement x method";
    Sweep::new("hetero", title, cells, check).columns([
        Column::key("fleet", |r| r.label.0).show("fleet", plain),
        Column::key("placement", |r| r.label.1.clone()).show("placement", plain),
        Column::key("method", |r| r.label.2.clone()).show("method", plain),
        Column::key("update_iops", |r| r.res.update_iops).show("IOPS", kilo),
        Column::key("latency_mean_us", |r| r.res.latency_mean_us).show("lat(us)", fixed::<0>),
        Column::key("fill_min", |r| r.res.disk_fill_min).show("fill min", fixed::<3>),
        Column::key("fill_max", |r| r.res.disk_fill_max).show("fill max", fixed::<3>),
        Column::key("wear_spread", |r| r.res.wear_spread).show("wear spread", fixed::<2>),
        Column::key("copysets_used", |r| r.res.copysets_used).show("copysets", plain),
        Column::key("net_gib", |r| r.res.net_gib),
    ])
}

fn check(results: &Results<Label>, report: &mut BenchReport) {
    let cell = |fleet: &str, placement: &str, method: &str| {
        results.get(|(f, p, m)| *f == fleet && p == placement && m == method)
    };

    // 1. The headline question: TSUE's lead over FO, all-flash vs tiered.
    let ratio = |fleet: &str| {
        let tsue = cell(fleet, "flat-rotate", "TSUE");
        let fo = cell(fleet, "flat-rotate", "FO");
        tsue.update_iops / fo.update_iops.max(1e-9)
    };
    let uniform_ratio = ratio("uniform-ssd");
    let tiered_ratio = ratio("tiered-8s+8h");
    println!(
        "\n  -> TSUE/FO: {uniform_ratio:.1}x on all-flash, {tiered_ratio:.1}x on the tiered fleet"
    );
    assert!(
        tiered_ratio > 1.0,
        "TSUE must keep its Fig. 5 lead on the tiered fleet (got {tiered_ratio:.2}x)"
    );
    assert!(
        tiered_ratio > uniform_ratio,
        "spinning disks punish FO's random parity path hardest: the lead must \
         grow on the tiered fleet ({uniform_ratio:.2}x -> {tiered_ratio:.2}x)"
    );

    // 2. The capacity story: on the skewed fleet the flat rotation
    // overfills the quarter-size disk; capacity weighting flattens it.
    for method in ["FO", "PL", "TSUE"] {
        let flat = cell("skewed-ssd", "flat-rotate", method);
        let capw = cell("skewed-ssd", "capacity-weighted", method);
        println!(
            "  -> {method}: skewed-fleet fill max {:.3} (flat-rotate) vs {:.3} (capacity-weighted)",
            flat.disk_fill_max, capw.disk_fill_max
        );
        assert!(
            capw.disk_fill_max < flat.disk_fill_max,
            "{method}: capacity weighting must lower the worst-disk fill \
             ({:.3} vs {:.3})",
            capw.disk_fill_max,
            flat.disk_fill_max
        );
    }

    // 3. The blast-radius budget: copyset placement confines stripes.
    for method in ["FO", "PL", "TSUE"] {
        let copy = cell("uniform-ssd", "copyset", method);
        let flat = cell("uniform-ssd", "flat-rotate", method);
        assert!(
            copy.copysets_used <= COPYSET_BUDGET,
            "{method}: {} copysets exceed the budget of {COPYSET_BUDGET}",
            copy.copysets_used
        );
        assert!(
            flat.copysets_used > COPYSET_BUDGET,
            "{method}: flat rotation should scatter stripes over many sets \
             (got {})",
            flat.copysets_used
        );
    }

    report.add_finding("tsue_fo_ratio_uniform_ssd", uniform_ratio);
    report.add_finding("tsue_fo_ratio_tiered", tiered_ratio);
    let skew_flat = cell("skewed-ssd", "flat-rotate", "TSUE");
    let skew_capw = cell("skewed-ssd", "capacity-weighted", "TSUE");
    report.add_finding("tsue_fill_max_skewed_flat_rotate", skew_flat.disk_fill_max);
    report.add_finding(
        "tsue_fill_max_skewed_capacity_weighted",
        skew_capw.disk_fill_max,
    );
    report.add_finding("copyset_budget", COPYSET_BUDGET);
    let copy_tsue = cell("uniform-ssd", "copyset", "TSUE");
    report.add_finding("tsue_copysets_used", copy_tsue.copysets_used);
}
