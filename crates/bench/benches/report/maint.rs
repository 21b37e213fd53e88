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
//! - `full` — scrub + wear-leveling rebalance over the same LSE
//!   injection, both competing with the foreground for the same disks.
//!
//! Findings the sweep asserts: scrubbing shrinks the latent-error exposure
//! (`lse_latent`), the full plan narrows TSUE's diurnal wear spread below
//! the no-maintenance baseline in the median over ten seeds (one seed's
//! spread moves by ±0.1 under any timing change, so a single pair can read
//! either way), scrub coverage is nonzero while the foreground p99 stays
//! finite, and the per-method foreground-p99 cost of the full plan under
//! diurnal load is reported explicitly. The rebalancer carries the wear
//! finding: TSUE's diurnal medians read 1.41 under the full plan against
//! 1.51 without maintenance at default scale (1.81 against 2.01 at
//! smoke), while scrub alone is wider than no maintenance on the default
//! seed (1.45 against 1.42).

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, plain, Results, Sweep};
use tsue_bench::{ssd_replay, BenchReport};

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

/// Seeds the wear check takes its medians over: the replay's own seed plus
/// `0..WEAR_SEEDS`.
const WEAR_SEEDS: u64 = 10;

/// A cell: rate curve, maintenance plan, method and seed offset. Cells at
/// a nonzero offset feed only the wear check and print no row.
type Label = (&'static str, &'static str, String, u64);
type Column = tsue_bench::sweep::Column<Label>;

pub fn sweep() -> Sweep<Label> {
    let methods: [Method; 3] = [Method::Fo, Method::Pl, Method::Tsue];
    let clients = if tsue_bench::smoke() { 6 } else { 12 };
    let mut cells = Vec::new();
    for (curve_name, curve) in curves() {
        for (plan_name, plan) in plans() {
            for &method in &methods {
                // TSUE's diurnal none/full pair also runs at the other
                // seeds, for the wear check.
                let wear = curve_name == "diurnal" && matches!(plan_name, "none" | "full");
                let seeds = if wear && method == Method::Tsue {
                    WEAR_SEEDS
                } else {
                    1
                };
                for seed in 0..seeds {
                    let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
                    r.cluster.fleet = DiskFleet::tiered(8, 8);
                    // Small log units keep TSUE's real-time recycling
                    // active on the HDD-homed log regions within a short
                    // run (cf. `hdd_replay`).
                    r.cluster.tsue_unit_bytes = 1 << 20;
                    r.ops_per_client = tsue_bench::ops_per_client() / 2;
                    let arrivals = OpenLoopSpec::poisson(STEADY_OPS_PER_S).with_rate(curve.clone());
                    r.workload = Workload::Open(arrivals);
                    r.maintenance = plan.clone();
                    r.seed += seed;
                    cells.push(((curve_name, plan_name, method.name().to_string(), seed), r));
                }
            }
        }
    }
    let title = "Maintenance sweep: RS(6,3) Ali-Cloud, tiered fleet, curve x plan x method";
    let sweep = Sweep::new("maint", title, cells, check).rows(|label, _| (label.3 == 0) as usize);
    sweep.columns([
        Column::key("curve", |r| r.label.0).show("curve", plain),
        Column::key("plan", |r| r.label.1).show("plan", plain),
        Column::key("method", |r| r.label.2.clone()).show("method", plain),
        Column::key("update_iops", |r| r.res.update_iops),
        Column::key("p99_us", |r| r.res.steady_p99_us).show("p99(us)", fixed::<0>),
        Column::key("maint_busy_p99_us", |r| r.res.maint_busy_p99_us),
        Column::key("maint_idle_p99_us", |r| r.res.maint_idle_p99_us),
        Column::key("scrub_gib", |r| r.res.scrub_gib).show("scrub GiB", fixed::<2>),
        Column::key("lse_injected", |r| r.res.lse_injected),
        Column::key("lse_found", |r| r.res.lse_found),
        Column::shown("LSE found", plain, |r| {
            format!("{}/{}", r.res.lse_found, r.res.lse_injected)
        }),
        Column::key("lse_repaired", |r| r.res.lse_repaired),
        Column::key("lse_latent", |r| latent(r.res)).show("latent", plain),
        Column::key("migrated_gib", |r| r.res.maint_migrated_gib).show("migr GiB", fixed::<2>),
        Column::key("wear_spread", |r| r.res.wear_spread).show("wear spread", fixed::<2>),
    ])
}

/// Injected LSEs no scrub repaired by the end of the run.
fn latent(res: &RunResult) -> u64 {
    res.lse_injected - res.lse_repaired
}

/// The median of TSUE's diurnal wear spread under `plan` over the seeds.
fn median_wear_spread(results: &Results<Label>, plan: &str) -> f64 {
    let mut spreads: Vec<f64> = results
        .iter()
        .filter(|((c, p, m, _), _)| *c == "diurnal" && *p == plan && m == "TSUE")
        .map(|(_, res)| res.wear_spread)
        .collect();
    assert_eq!(spreads.len() as u64, WEAR_SEEDS, "plan {plan}");
    spreads.sort_by(f64::total_cmp);
    let mid = spreads.len() / 2;
    (spreads[mid - 1] + spreads[mid]) / 2.0
}

fn check(results: &Results<Label>, report: &mut BenchReport) {
    for ((_, plan, method, seed), res) in results.iter() {
        assert_eq!(res.data_loss_blocks, 0, "{method} plan {plan} seed +{seed}");
    }
    let cell = |curve: &str, plan: &str, method: &str| {
        results.get(|(c, p, m, s)| *c == curve && *p == plan && m == method && *s == 0)
    };

    // 1. The data-protection story: unscrubbed LSEs stay latent for the
    // whole run — exactly the exposure a correlated disk death turns
    // into data loss — while a scrubbed run finds and repairs them.
    let exposed = cell("diurnal", "lse-only", "TSUE");
    let scrubbed = cell("diurnal", "scrub", "TSUE");
    let latent_exposed = latent(exposed);
    let latent_scrubbed = latent(scrubbed);
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

    // 2. The wear story: the full plan narrows the fleet's wear spread
    // below the no-maintenance baseline, in the median over the seeds
    // (1.41 against 1.51 at default scale, 1.81 against 2.01 at smoke).
    // The rebalancer carries it: on the default seed the full plan reads
    // 1.401 against the baseline's 1.421 at default scale, and scrub
    // alone reads 1.45. The spread is taken over every device, spindles
    // included, while the rebalancer levels only the flash tier.
    let none = cell("diurnal", "none", "TSUE");
    let full = cell("diurnal", "full", "TSUE");
    let (none_median, full_median) = (
        median_wear_spread(results, "none"),
        median_wear_spread(results, "full"),
    );
    println!(
        "  -> TSUE wear spread: {:.2} without maintenance, {:.2} under the full plan \
         (medians over {WEAR_SEEDS} seeds: {none_median:.2} vs {full_median:.2})",
        none.wear_spread, full.wear_spread
    );
    assert!(
        full_median < none_median,
        "the full plan must narrow the median wear spread ({full_median:.3} vs {none_median:.3})"
    );
    assert!(full.scrub_gib > 0.0, "full plan never scrubbed");

    // 3. The cost story: what the full plan costs each method's
    // foreground p99 under the diurnal day.
    for method in ["FO", "PL", "TSUE"] {
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
    report.add_finding("wear_spread_none_tsue_median", none_median);
    report.add_finding("wear_spread_full_tsue_median", full_median);
    report.add_finding("scrub_gib_full_tsue", full.scrub_gib);
}
