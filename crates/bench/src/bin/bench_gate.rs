//! The bench regression gate: re-reads the eight sweeps' machine-readable
//! reports (`BENCH_<sweep>.json`) and asserts the shape invariants the
//! repository's findings rest on. Runs as the final bench-smoke step in
//! CI, so a perf or behaviour regression **fails the workflow** instead of
//! scrolling past in a log.
//!
//! Checked invariants:
//!
//! 1. `load_sweep`: TSUE's goodput at its saturation knee is at least
//!    FO's at FO's knee, and TSUE's knee rate comes no earlier.
//! 2. `topo_sweep`: rack-local placement costs TSUE no more spine traffic
//!    than rack-aware (the clustered-network-coding win).
//! 3. `fault_sweep`: every faulted cell reports a finite, positive MTTR
//!    under the default repair policy (repair always completes), and no
//!    faulted cell lost data (rows exist and parsed).
//! 4. `hetero_sweep`: TSUE keeps its Fig. 5 lead on the tiered fleet, and
//!    capacity-weighted placement lowers the skewed fleet's worst-disk
//!    fill below flat-rotate's; copyset usage respects its budget.
//! 5. `maint_sweep`: scrubbing shrinks the latent-LSE exposure (at least
//!    one injected error detected *and* repaired), the full maintenance
//!    plan's wear spread stays below the no-maintenance baseline, and
//!    scrub coverage is nonzero while the foreground p99 stays finite.
//! 6. `scale_sweep`: the open-loop runtime stays O(active) as the client
//!    population grows 1 k → 1 M — peak active clients track the window
//!    math (bounded, nowhere near the population), resident client-state
//!    bytes at the largest population stay within 2x of the smallest,
//!    replay speed stays within a bounded factor across the whole ramp,
//!    and the TSUE >= FO knee ranking survives at every population with
//!    both methods' knees non-decreasing as the cluster scales up.
//! 7. `trace_sweep`: tracing is honest at smoke scale — zero dropped
//!    spans per method, the stage spans attribute >= 95% of the retained
//!    ops' client-observed latency (it is 100% by construction unless a
//!    driver forgets a stage), and the rollup's mean update latency
//!    reconciles with the independently-derived `latency_mean_us` within
//!    1%; the exported TSUE trace has spans and utilization lanes.
//! 8. `cache_sweep`: the node-local cache & staging decorator behaves —
//!    every row's spec string round-trips through `MethodSpec::parse`
//!    unchanged, each method's hit ratio is monotone in cache size and
//!    stays in [0, 1], `lru(64MiB)+FO` rides at least bare FO's IOPS,
//!    TSUE's relative cache gain is the smallest of the swept methods,
//!    and every staged cell actually coalesced bytes.
//! 9. Across **every** report, each row carries a positive
//!    `events_per_sec`, so no sweep silently drops the engine-speed
//!    cells.
//!
//! Usage: `bench_gate [report-dir]` (default: `TSUE_BENCH_REPORT_DIR` or
//! `target/bench-report`). Exits non-zero listing every violated
//! invariant.

use tsue_bench::{load_report, report_dir, Json};

struct Gate {
    failures: Vec<String>,
    checks: usize,
}

impl Gate {
    fn check(&mut self, ok: bool, what: &str) {
        self.checks += 1;
        if ok {
            println!("  ok: {what}");
        } else {
            println!("  FAIL: {what}");
            self.failures.push(what.to_string());
        }
    }

    fn finding(&mut self, report: &Json, key: &str) -> f64 {
        match report.get("findings").and_then(|f| f.get(key)) {
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() => x,
                _ => {
                    self.check(false, &format!("finding {key} is a finite number"));
                    f64::NAN
                }
            },
            None => {
                self.check(false, &format!("finding {key} present"));
                f64::NAN
            }
        }
    }

    /// Like [`Self::check`], but skipped when an operand is non-finite:
    /// the missing/NaN finding already failed the gate, and reporting its
    /// NaN comparison too would read as a second, bogus regression.
    fn check_cmp(&mut self, operands: &[f64], ok: bool, what: &str) {
        if operands.iter().all(|v| v.is_finite()) {
            self.check(ok, what);
        }
    }
}

fn rows<'a>(report: &'a Json, sweep: &str, gate: &mut Gate) -> &'a [Json] {
    let rows = report
        .get("rows")
        .and_then(|r| r.as_arr())
        .unwrap_or_default();
    gate.check(!rows.is_empty(), &format!("{sweep}: report has rows"));
    rows
}

fn main() {
    let dir = std::env::args()
        .nth(1)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(report_dir);
    println!("bench gate over {}", dir.display());

    let mut gate = Gate {
        failures: Vec::new(),
        checks: 0,
    };

    let mut reports = Vec::new();
    for sweep in [
        "topo_sweep",
        "fault_sweep",
        "load_sweep",
        "hetero_sweep",
        "maint_sweep",
        "scale_sweep",
        "trace_sweep",
        "cache_sweep",
    ] {
        match load_report(&dir, sweep) {
            Ok(doc) => reports.push((sweep, doc)),
            Err(e) => {
                gate.check(false, &format!("{sweep}: report loads ({e})"));
            }
        }
    }
    let get = |name: &str| reports.iter().find(|(s, _)| *s == name).map(|(_, d)| d);

    // 1. Load sweep: the sustainable-throughput ranking.
    if let Some(load) = get("load_sweep") {
        println!("\nload_sweep:");
        let _ = rows(load, "load_sweep", &mut gate);
        let tsue_cap = gate.finding(load, "knee_goodput_TSUE");
        let fo_cap = gate.finding(load, "knee_goodput_FO");
        gate.check_cmp(
            &[tsue_cap, fo_cap],
            tsue_cap >= fo_cap,
            &format!("TSUE goodput at the knee ({tsue_cap:.0}/s) >= FO's ({fo_cap:.0}/s)"),
        );
        let tsue_knee = gate.finding(load, "knee_rate_TSUE");
        let fo_knee = gate.finding(load, "knee_rate_FO");
        gate.check_cmp(
            &[tsue_knee, fo_knee],
            tsue_knee >= fo_knee,
            &format!("TSUE saturates no earlier than FO ({tsue_knee:.0} vs {fo_knee:.0} ops/s)"),
        );
    }

    // 2. Topology sweep: rack-local keeps TSUE's parity pipeline in-rack.
    if let Some(topo) = get("topo_sweep") {
        println!("\ntopo_sweep:");
        let _ = rows(topo, "topo_sweep", &mut gate);
        let local = gate.finding(topo, "tsue_cross_gib_rack_local");
        let aware = gate.finding(topo, "tsue_cross_gib_rack_aware");
        gate.check_cmp(
            &[local, aware],
            local <= aware,
            &format!(
                "TSUE rack-local spine traffic ({local:.3} GiB) <= rack-aware ({aware:.3} GiB)"
            ),
        );
    }

    // 3. Fault sweep: repair completes — finite positive MTTR per faulted
    // cell under the default (unthrottled) repair policy.
    if let Some(fault) = get("fault_sweep") {
        println!("\nfault_sweep:");
        let fault_rows = rows(fault, "fault_sweep", &mut gate);
        let mut faulted = 0;
        let mut bad = Vec::new();
        for row in fault_rows {
            let plan = row.get("fault").and_then(|v| v.as_str()).unwrap_or("?");
            if plan == "none" {
                continue;
            }
            faulted += 1;
            let mttr = row.get("mttr_ms").and_then(|v| v.as_f64());
            match mttr {
                Some(ms) if ms.is_finite() && ms > 0.0 => {}
                _ => bad.push(format!(
                    "{}/{plan}: mttr_ms = {mttr:?}",
                    row.get("method").and_then(|v| v.as_str()).unwrap_or("?")
                )),
            }
        }
        gate.check(faulted > 0, "fault_sweep exercises faulted cells");
        gate.check(
            bad.is_empty(),
            &format!(
                "every faulted cell has finite positive MTTR{}",
                if bad.is_empty() {
                    String::new()
                } else {
                    format!(" (violations: {})", bad.join("; "))
                }
            ),
        );
    }

    // 4. Hetero sweep: the heterogeneous-fleet findings hold.
    if let Some(hetero) = get("hetero_sweep") {
        println!("\nhetero_sweep:");
        let _ = rows(hetero, "hetero_sweep", &mut gate);
        let tiered = gate.finding(hetero, "tsue_fo_ratio_tiered");
        gate.check_cmp(
            &[tiered],
            tiered >= 1.0,
            &format!("TSUE keeps its lead over FO on the tiered fleet ({tiered:.2}x)"),
        );
        let flat = gate.finding(hetero, "tsue_fill_max_skewed_flat_rotate");
        let capw = gate.finding(hetero, "tsue_fill_max_skewed_capacity_weighted");
        gate.check_cmp(
            &[capw, flat],
            capw < flat,
            &format!(
                "capacity-weighted lowers the skewed fleet's worst-disk fill \
                 ({capw:.3} < {flat:.3})"
            ),
        );
        let budget = gate.finding(hetero, "copyset_budget");
        let used = gate.finding(hetero, "tsue_copysets_used");
        gate.check_cmp(
            &[used, budget],
            used <= budget,
            &format!("copyset placement respects its budget ({used:.0} <= {budget:.0})"),
        );
    }

    // 5. Maintenance sweep: background hygiene pays for itself.
    if let Some(maint) = get("maint_sweep") {
        println!("\nmaint_sweep:");
        let _ = rows(maint, "maint_sweep", &mut gate);
        let found = gate.finding(maint, "lse_found_scrub_tsue");
        let repaired = gate.finding(maint, "lse_repaired_scrub_tsue");
        gate.check_cmp(
            &[found, repaired],
            found >= 1.0 && repaired >= 1.0,
            &format!("scrubbing detects and repairs injected LSEs ({found:.0} found, {repaired:.0} repaired)"),
        );
        let exposed = gate.finding(maint, "lse_latent_unscrubbed");
        let scrubbed = gate.finding(maint, "lse_latent_scrubbed");
        gate.check_cmp(
            &[scrubbed, exposed],
            scrubbed < exposed,
            &format!(
                "scrubbing shrinks the latent-LSE exposure ({scrubbed:.0} < {exposed:.0} left \
                 for a correlated failure to hit)"
            ),
        );
        let spread_none = gate.finding(maint, "wear_spread_none_tsue");
        let spread_full = gate.finding(maint, "wear_spread_full_tsue");
        gate.check_cmp(
            &[spread_full, spread_none],
            spread_full < spread_none,
            &format!(
                "the rebalancer narrows the wear spread ({spread_full:.2} < {spread_none:.2})"
            ),
        );
        let coverage = gate.finding(maint, "scrub_gib_full_tsue");
        gate.check_cmp(
            &[coverage],
            coverage > 0.0,
            &format!("full-plan scrub coverage is nonzero ({coverage:.2} GiB)"),
        );
        // The per-method foreground cost of the full plan is a reported
        // finding: `finding()` already fails the gate if any method's
        // p99 under maintenance is missing or non-finite.
        for method in ["FO", "PL", "TSUE"] {
            let p99 = gate.finding(maint, &format!("p99_us_full_{method}"));
            let cost = gate.finding(maint, &format!("maint_p99_cost_us_{method}"));
            gate.check_cmp(
                &[p99, cost],
                p99 > 0.0,
                &format!("{method}: finite foreground p99 under the full plan ({p99:.0} us, maintenance cost {cost:+.0} us)"),
            );
        }
    }

    // 6. Scale sweep: the million-client trajectory holds flat. The
    // population list is read off the rows, so the gate follows whatever
    // grid the sweep ran (smoke's 1 k → 50 k or the full 1 k → 1 M ramp).
    if let Some(scale) = get("scale_sweep") {
        println!("\nscale_sweep:");
        let scale_rows = rows(scale, "scale_sweep", &mut gate);
        let mut pops: Vec<u64> = scale_rows
            .iter()
            .filter_map(|row| row.get("population").and_then(|v| v.as_f64()))
            .map(|p| p as u64)
            .collect();
        pops.sort_unstable();
        pops.dedup();
        gate.check(
            pops.len() >= 2,
            &format!("scale_sweep ramps the population ({} sizes)", pops.len()),
        );
        if let (Some(&min_pop), Some(&max_pop)) = (pops.first(), pops.last()) {
            // O(active): the peak of concurrently-active clients tracks
            // the arrival/window math, not the id space — growing the
            // population by orders of magnitude must not grow it past a
            // small factor, and it must stay nowhere near the population.
            let peak_min = gate.finding(scale, &format!("active_peak_{min_pop}"));
            let peak_max = gate.finding(scale, &format!("active_peak_{max_pop}"));
            gate.check_cmp(
                &[peak_min, peak_max],
                peak_max <= (4.0 * peak_min).max(64.0),
                &format!(
                    "peak active clients track window math, not population \
                     ({peak_max:.0} at {max_pop} vs {peak_min:.0} at {min_pop})"
                ),
            );
            gate.check_cmp(
                &[peak_max],
                peak_max * 100.0 <= max_pop as f64,
                &format!(
                    "peak active clients ({peak_max:.0}) stay far below the \
                     {max_pop}-client population"
                ),
            );
            // Resident client state is O(active), so the largest
            // population costs what the smallest does.
            let bytes_min = gate.finding(scale, &format!("state_bytes_{min_pop}"));
            let bytes_max = gate.finding(scale, &format!("state_bytes_{max_pop}"));
            gate.check_cmp(
                &[bytes_min, bytes_max],
                bytes_max <= 2.0 * bytes_min,
                &format!(
                    "client state at {max_pop} clients ({bytes_max:.0} B) within \
                     2x of {min_pop} clients ({bytes_min:.0} B)"
                ),
            );
            // Replay speed must not collapse with the id space. This is a
            // wall-clock measurement, so the bound is deliberately loose
            // (the largest cell also runs a 6x bigger cluster): a factor
            // 4 catches an O(population) regression — the eager runtime
            // was ~1000x here — without flaking on runner noise.
            let evps_min = gate.finding(scale, &format!("events_per_sec_{min_pop}"));
            let evps_max = gate.finding(scale, &format!("events_per_sec_{max_pop}"));
            gate.check_cmp(
                &[evps_min, evps_max],
                evps_max * 4.0 >= evps_min,
                &format!(
                    "replay speed at {max_pop} clients ({evps_max:.0} ev/s) within \
                     4x of {min_pop} clients ({evps_min:.0} ev/s)"
                ),
            );
            // Setup is streamed, not materialised: the finding just has
            // to exist and be finite — `finding()` fails the gate if the
            // sweep stops reporting it.
            let _ = gate.finding(scale, &format!("setup_ms_{max_pop}"));
            // The load_sweep ranking claim survives every population, and
            // both methods' knees grow (or hold) as the cluster scales.
            let mut prev: Option<(f64, f64)> = None;
            for &pop in &pops {
                let tsue = gate.finding(scale, &format!("knee_rate_TSUE_{pop}"));
                let fo = gate.finding(scale, &format!("knee_rate_FO_{pop}"));
                gate.check_cmp(
                    &[tsue, fo],
                    tsue >= fo,
                    &format!(
                        "TSUE saturates no earlier than FO at {pop} clients \
                         ({tsue:.0} vs {fo:.0} ops/s)"
                    ),
                );
                if let Some((ptsue, pfo)) = prev {
                    gate.check_cmp(
                        &[tsue, ptsue, fo, pfo],
                        tsue >= ptsue && fo >= pfo,
                        &format!(
                            "knees non-decreasing up to {pop} clients \
                             (TSUE {ptsue:.0} -> {tsue:.0}, FO {pfo:.0} -> {fo:.0})"
                        ),
                    );
                }
                prev = Some((tsue, fo));
            }
        }
    }

    // 7. Trace sweep: the tracing layer accounts for the latency it
    // claims to decompose, and loses nothing at smoke scale.
    if let Some(trace) = get("trace_sweep") {
        println!("\ntrace_sweep:");
        let _ = rows(trace, "trace_sweep", &mut gate);
        for method in ["FO", "PL", "PLR", "PARIX", "CoRD", "TSUE"] {
            let dropped = gate.finding(trace, &format!("trace_dropped_spans_{method}"));
            gate.check_cmp(
                &[dropped],
                dropped == 0.0,
                &format!("{method}: no spans dropped at smoke scale ({dropped:.0})"),
            );
            let attribution = gate.finding(trace, &format!("attribution_{method}"));
            gate.check_cmp(
                &[attribution],
                attribution >= 0.95,
                &format!(
                    "{method}: stage spans attribute >= 95% of client latency \
                     ({:.1}%)",
                    attribution * 100.0
                ),
            );
            let recon = gate.finding(trace, &format!("recon_err_{method}"));
            gate.check_cmp(
                &[recon],
                recon <= 0.01,
                &format!(
                    "{method}: rollup mean reconciles with latency_mean_us \
                     ({:.3}% error)",
                    recon * 100.0
                ),
            );
        }
        let spans = gate.finding(trace, "trace_spans_tsue");
        let lanes = gate.finding(trace, "trace_util_lanes_tsue");
        gate.check_cmp(
            &[spans, lanes],
            spans > 0.0 && lanes > 0.0,
            &format!(
                "exported TSUE trace carries spans and utilization lanes \
                 ({spans:.0} spans, {lanes:.0} lanes)"
            ),
        );
    }

    // 8. Cache sweep: the node-local cache & write-staging decorator.
    if let Some(cache) = get("cache_sweep") {
        println!("\ncache_sweep:");
        let cache_rows = rows(cache, "cache_sweep", &mut gate);
        // Every reported spec string is canonical under the redesigned
        // method-spec grammar: parse -> display reproduces it exactly.
        let bad_specs: Vec<String> = cache_rows
            .iter()
            .filter_map(|row| row.get("spec").and_then(|v| v.as_str()))
            .filter(|spec| {
                ecfs::MethodSpec::parse(spec)
                    .map(|p| p.to_string() != **spec)
                    .unwrap_or(true)
            })
            .map(|s| s.to_string())
            .collect();
        gate.check(
            bad_specs.is_empty(),
            &format!(
                "every row's spec round-trips through MethodSpec::parse{}",
                if bad_specs.is_empty() {
                    String::new()
                } else {
                    format!(" (violations: {})", bad_specs.join("; "))
                }
            ),
        );
        // The swept methods are read off the rows so the gate follows the
        // smoke and full grids alike.
        let mut methods: Vec<String> = cache_rows
            .iter()
            .filter_map(|row| row.get("method").and_then(|v| v.as_str()))
            .map(|s| s.to_string())
            .collect();
        methods.dedup();
        gate.check(
            methods.iter().any(|m| m == "FO") && methods.iter().any(|m| m == "TSUE"),
            "cache_sweep covers FO and TSUE",
        );
        for method in &methods {
            let ramp: Vec<f64> = ["64KiB", "1MiB", "64MiB"]
                .iter()
                .map(|size| gate.finding(cache, &format!("hit_ratio_{method}_{size}")))
                .collect();
            gate.check_cmp(
                &ramp,
                ramp.iter().all(|r| (0.0..=1.0).contains(r)),
                &format!("{method}: hit ratios within [0, 1] ({ramp:?})"),
            );
            gate.check_cmp(
                &ramp,
                ramp.windows(2).all(|w| w[1] >= w[0] - 0.01),
                &format!("{method}: hit ratio monotone in cache size ({ramp:?})"),
            );
            let frac = gate.finding(cache, &format!("coalesced_frac_{method}"));
            gate.check_cmp(
                &[frac],
                frac > 0.0 && frac < 1.0,
                &format!("{method}: staging coalesces a nonzero fraction ({frac:.3})"),
            );
        }
        let fo_gain = gate.finding(cache, "cache_gain_FO");
        gate.check_cmp(
            &[fo_gain],
            fo_gain >= 1.0,
            &format!("a read cache never slows FO down ({fo_gain:.3}x)"),
        );
        let tsue_gain = gate.finding(cache, "cache_gain_TSUE");
        for method in &methods {
            let gain = gate.finding(cache, &format!("cache_gain_{method}"));
            gate.check_cmp(
                &[tsue_gain, gain],
                tsue_gain <= gain + 0.02,
                &format!(
                    "TSUE's cache gain ({tsue_gain:.3}x) is the smallest \
                     ({method} gains {gain:.3}x)"
                ),
            );
        }
    }

    // 9. Every report, every row: the engine-speed cells are present and
    // positive — a sweep that stops carrying `events_per_sec` breaks the
    // speed trajectory even if its own findings still hold.
    println!("\nengine cells across all reports:");
    for (sweep, doc) in &reports {
        let rows = doc.get("rows").and_then(|r| r.as_arr()).unwrap_or_default();
        let bad = rows
            .iter()
            .filter(|row| {
                !matches!(
                    row.get("events_per_sec").and_then(|v| v.as_f64()),
                    Some(v) if v.is_finite() && v > 0.0
                )
            })
            .count();
        gate.check(
            bad == 0,
            &format!(
                "{sweep}: every row carries a positive events_per_sec \
                 ({bad}/{} violations)",
                rows.len()
            ),
        );
    }

    println!();
    if gate.failures.is_empty() {
        println!(
            "bench gate passed: {} invariants hold across {} reports",
            gate.checks,
            reports.len()
        );
    } else {
        eprintln!("bench gate FAILED ({} violations):", gate.failures.len());
        for f in &gate.failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
