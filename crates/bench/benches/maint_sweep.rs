//! Maintenance sweep: method × maintenance plan × rate curve on the
//! tiered fleet — what does "free" background hygiene actually cost the
//! foreground, and what does skipping it cost the data?
//!
//! Every cell runs the same open-loop Ali-Cloud workload on the
//! half-SSD/half-HDD fleet, once at a steady offered rate and once on a
//! diurnal (raised-cosine) day compressed to simulation scale. Four
//! plans cross each method:
//!
//! - `none` — no maintenance at all: the baseline the cost attribution
//!   subtracts from.
//! - `lse-only` — latent sector errors are injected but nothing scrubs
//!   for them: the exposure a correlated failure would turn into data
//!   loss.
//! - `scrub` — periodic scrubbing over the same LSE injection: the
//!   detector working alone.
//! - `full` — scrub + wear-leveling rebalance + tier demotion, all
//!   competing with the foreground for the same disks.
//!
//! Findings the sweep asserts: scrubbing shrinks the latent-error exposure
//! (`lse_latent`), rebalance and demotion together narrow the fleet's wear
//! spread below the no-maintenance baseline (at default scale a full plan
//! without demotion leaves TSUE at 1.59 against the baseline's 1.42, so
//! demotion owns part of this finding), scrub coverage is nonzero while the
//! foreground p99 stays finite, and the per-method foreground-p99 cost
//! of the full plan under diurnal load is reported explicitly.

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::{print_table, run_grid, ssd_replay, BenchReport};

/// Offered aggregate rates (ops/s): the diurnal day swings around the
/// same mean the steady curve holds, so the two curves offer the same
/// total work and differ only in its arrangement.
const PEAK_OPS_PER_S: f64 = 4_000.0;
const TROUGH_OPS_PER_S: f64 = 400.0;
const STEADY_OPS_PER_S: f64 = (PEAK_OPS_PER_S + TROUGH_OPS_PER_S) / 2.0;

/// One compressed "day".
const PERIOD_NS: u64 = 20 * simdes::units::MILLIS;

/// Maintenance keeps running past the last client completion and the
/// final log drain, so the end-of-run wear census judges the leveler on
/// the whole run, not a prefix.
const HORIZON_NS: u64 = 4 * simdes::units::SECS;

fn curves() -> Vec<(&'static str, RateCurve)> {
    vec![
        (
            "steady",
            RateCurve::Constant {
                ops_per_s: STEADY_OPS_PER_S,
            },
        ),
        (
            "diurnal",
            RateCurve::Diurnal {
                peak_ops_per_s: PEAK_OPS_PER_S,
                trough_ops_per_s: TROUGH_OPS_PER_S,
                period_ns: PERIOD_NS,
            },
        ),
    ]
}

/// LSE sites dense enough to sit under placed blocks at this scale.
fn lse() -> LseConfig {
    LseConfig {
        per_device: 4,
        span_bytes: 8 << 20,
    }
}

/// A scrub fast enough to sweep the placed footprint within the horizon.
fn scrub() -> ScrubConfig {
    ScrubConfig {
        bytes_per_sec: 1 << 30,
    }
}

fn plans() -> Vec<(&'static str, MaintenancePlan)> {
    vec![
        ("none", MaintenancePlan::default()),
        (
            "lse-only",
            MaintenancePlan::new()
                .with_lse(lse())
                .with_horizon(HORIZON_NS),
        ),
        (
            "scrub",
            MaintenancePlan::new()
                .with_scrub(scrub())
                .with_lse(lse())
                .with_horizon(HORIZON_NS),
        ),
        (
            "full",
            MaintenancePlan::full()
                .with_scrub(scrub())
                .with_lse(lse())
                .with_horizon(HORIZON_NS),
        ),
    ]
}

fn sweep_replay(
    method: Arc<dyn UpdateMethod>,
    plan: &MaintenancePlan,
    curve: &RateCurve,
) -> ReplayConfig {
    let clients = if tsue_bench::smoke() { 6 } else { 12 };
    let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
    r.cluster.fleet = DiskFleet::tiered(8, 8);
    // Small log units keep TSUE's real-time recycling active on the
    // HDD-homed log regions within a short run (cf. `hdd_replay`).
    r.cluster.tsue_unit_bytes = 1 << 20;
    r.ops_per_client = tsue_bench::ops_per_client() / 2;
    r.workload = Workload::Open(OpenLoopSpec::poisson(STEADY_OPS_PER_S).with_rate(curve.clone()));
    r.maintenance = plan.clone();
    r
}

fn main() {
    let methods: [Arc<dyn UpdateMethod>; 3] = [Arc::new(Fo), Arc::new(Pl), Arc::new(Tsue)];

    let mut grid = Vec::new();
    let mut labels = Vec::new();
    for (curve_name, curve) in curves() {
        for (plan_name, plan) in plans() {
            for method in &methods {
                grid.push(sweep_replay(Arc::clone(method), &plan, &curve));
                labels.push((curve_name, plan_name, method.name()));
            }
        }
    }
    let results = run_grid(&grid);

    let mut report = BenchReport::new("maint_sweep");
    let mut rows = Vec::new();
    for ((curve, plan, method), res) in labels.iter().zip(&results) {
        assert_eq!(
            res.oracle_violations, 0,
            "{method} plan {plan} under {curve} load violated consistency"
        );
        assert_eq!(res.data_loss_blocks, 0, "{method} plan {plan}");
        let latent = res.lse_injected - res.lse_repaired;
        let cells = vec![
            ("curve", (*curve).into()),
            ("plan", (*plan).into()),
            ("method", (*method).into()),
            ("update_iops", res.update_iops.into()),
            ("p99_us", res.steady_p99_us.into()),
            ("maint_busy_p99_us", res.maint_busy_p99_us.into()),
            ("maint_idle_p99_us", res.maint_idle_p99_us.into()),
            ("scrub_gib", res.scrub_gib.into()),
            ("lse_injected", res.lse_injected.into()),
            ("lse_found", res.lse_found.into()),
            ("lse_repaired", res.lse_repaired.into()),
            ("lse_latent", latent.into()),
            ("migrated_gib", res.maint_migrated_gib.into()),
            ("wear_spread", res.wear_spread.into()),
        ];
        report.add_row(res, cells);
        rows.push(vec![
            (*curve).to_string(),
            (*plan).to_string(),
            (*method).to_string(),
            format!("{:.0}", res.steady_p99_us),
            format!("{:.2}", res.scrub_gib),
            format!("{}/{}", res.lse_found, res.lse_injected),
            format!("{latent}"),
            format!("{:.2}", res.maint_migrated_gib),
            format!("{:.2}", res.wear_spread),
        ]);
    }
    print_table(
        "Maintenance sweep: RS(6,3) Ali-Cloud, tiered fleet, curve x plan x method",
        &[
            "curve",
            "plan",
            "method",
            "p99(us)",
            "scrub GiB",
            "LSE found",
            "latent",
            "migr GiB",
            "wear spread",
        ],
        &rows,
    );

    let cell = |curve: &str, plan: &str, method: &str| {
        labels
            .iter()
            .zip(&results)
            .find(|((c, p, m), _)| *c == curve && *p == plan && *m == method)
            .map(|(_, res)| res)
            .unwrap()
    };

    // 1. The data-protection story: unscrubbed LSEs stay latent for the
    // whole run — exactly the exposure a correlated disk death turns
    // into data loss — while a scrubbed run finds and repairs them.
    let exposed = cell("diurnal", "lse-only", "TSUE");
    let scrubbed = cell("diurnal", "scrub", "TSUE");
    let latent_exposed = exposed.lse_injected - exposed.lse_repaired;
    let latent_scrubbed = scrubbed.lse_injected - scrubbed.lse_repaired;
    println!(
        "\n  -> latent LSEs at end of day: {latent_exposed} unscrubbed vs {latent_scrubbed} scrubbed \
         ({} found, {} repaired)",
        scrubbed.lse_found, scrubbed.lse_repaired
    );
    assert!(
        scrubbed.lse_found >= 1 && scrubbed.lse_repaired >= 1,
        "scrubbing found {} and repaired {} LSEs",
        scrubbed.lse_found,
        scrubbed.lse_repaired
    );
    assert!(
        latent_scrubbed < latent_exposed,
        "scrubbing must shrink the latent exposure ({latent_scrubbed} vs {latent_exposed})"
    );

    // 2. The wear story: the full plan's rebalancer and demoter together
    // narrow the fleet's wear spread below the no-maintenance baseline.
    // Demotion carries its share: at default scale, dropping it from the
    // full plan leaves TSUE at 1.59 against the baseline's 1.42.
    let none = cell("diurnal", "none", "TSUE");
    let full = cell("diurnal", "full", "TSUE");
    println!(
        "  -> TSUE wear spread: {:.2} without maintenance, {:.2} under the full plan",
        none.wear_spread, full.wear_spread
    );
    assert!(
        full.wear_spread < none.wear_spread,
        "rebalance + demotion must narrow the wear spread ({:.3} vs {:.3})",
        full.wear_spread,
        none.wear_spread
    );
    assert!(full.scrub_gib > 0.0, "full plan never scrubbed");

    // 3. The cost story: what the full plan costs each method's
    // foreground p99 under the diurnal day.
    for method in methods.iter().map(|m| m.name()) {
        let base = cell("diurnal", "none", method);
        let loaded = cell("diurnal", "full", method);
        let cost = loaded.steady_p99_us - base.steady_p99_us;
        println!(
            "  -> {method}: foreground p99 {:.0} us -> {:.0} us with the full plan ({cost:+.0} us)",
            base.steady_p99_us, loaded.steady_p99_us
        );
        assert!(
            loaded.steady_p99_us.is_finite() && loaded.steady_p99_us > 0.0,
            "{method}: foreground p99 must stay finite under maintenance"
        );
        assert!(
            cost.is_finite(),
            "{method}: the full plan's foreground p99 cost ({cost} us) must be finite"
        );
        report.add_finding(&format!("maint_p99_cost_us_{method}"), cost);
        report.add_finding(&format!("p99_us_full_{method}"), loaded.steady_p99_us);
    }

    report.add_finding("lse_latent_unscrubbed", latent_exposed as f64);
    report.add_finding("lse_latent_scrubbed", latent_scrubbed as f64);
    report.add_finding("lse_found_scrub_tsue", scrubbed.lse_found as f64);
    report.add_finding("lse_repaired_scrub_tsue", scrubbed.lse_repaired as f64);
    report.add_finding("wear_spread_none_tsue", none.wear_spread);
    report.add_finding("wear_spread_full_tsue", full.wear_spread);
    report.add_finding("scrub_gib_full_tsue", full.scrub_gib);
    report.write_and_announce();
}
