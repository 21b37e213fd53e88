//! Trace sweep: runs every Fig. 5 method with tracing armed and reports
//! where each method's update latency goes, stage by stage.
//!
//! This is Fig. 7's decomposition regenerated from the tracing layer
//! instead of bespoke counters: each method replays the same AliCloud
//! smoke cell with [`TraceConfig::on`], and the sweep tabulates the
//! per-stage rollup (`RunResult::stage_breakdown`), checks that the
//! stage spans account for the measured latency, and exports the TSUE
//! trace both ways — `BENCH_trace.json` (Chrome Trace Event Format,
//! loads in Perfetto; CI validates it with `trace_dump --check`) and
//! `BENCH_trace.bin` (the compact log `trace_dump` inspects).
//!
//! Findings per method, each asserted by the sweep:
//!
//! * `trace_dropped_spans_<m>` — must be 0 (the default retention
//!   budget fits every cell's whole run, so a drop means a leak);
//! * `attribution_<m>` — Σ span durations / Σ op latencies over the
//!   retained ops, must be ≥ 0.95 (it is 1.0 by construction unless a
//!   driver forgets to tag a stage);
//! * `recon_err_<m>` — relative gap between the rollup's mean update
//!   latency (Σ Update-row total / completed updates) and the
//!   independently-derived `latency_mean_us`, must be within 1%.
//!
//! The exported TSUE trace must carry spans and utilization lanes.
//!
//! Two more cells, `FO burst` and `TSUE burst`, offer one bursty
//! open-loop schedule to FO and TSUE at the same fixed scale at every
//! scale setting ([`burst`]). Their stage rows are the p99 waterfall of
//! a burst, and the check asserts what it shows (`burst_*` findings):
//!
//! * FO saturates (falls behind the schedule) and TSUE does not;
//! * TSUE's goodput is higher than FO's (55.3k vs 37.7k ops/s);
//! * TSUE's admission-queue p99 is lower than FO's (4.2 vs 67.1 ms);
//! * FO's `queue_wait` stage p99 is higher than TSUE's.
//!
//! FO's parity read-modify-write inside every update makes each update
//! slow enough that bursts pile up at admission, while TSUE's
//! replicated log append keeps service fast and the queue drained.

use ecfs::prelude::*;
use ecfs::telemetry::{binary, chrome, OpClass, StageRow};
use simdes::units::MILLIS;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, plain, Results, Row, Sweep};
use tsue_bench::{fig5_methods, kfmt, report_dir, ssd_replay, BenchReport};

/// A cell: its method's name, or `<method> burst` for the burst pair.
type Label = String;
type Column = tsue_bench::sweep::Column<Label>;

/// The update-path stage table (what Fig. 7 plots per method).
fn update_rows(res: &RunResult) -> Vec<&StageRow> {
    res.stage_breakdown
        .iter()
        .filter(|r| r.class == OpClass::Update)
        .collect()
}

fn update_total_us(res: &RunResult) -> f64 {
    update_rows(res).iter().map(|r| r.total_us).sum()
}

/// The stage a row of the table shows.
fn stage<'a>(r: &Row<'a, Label>) -> &'a StageRow {
    update_rows(r.res)[r.part]
}

/// The burst pair's cell: RS(6,3) Ali-Cloud, 8 clients, 500 ops/client
/// on a 32 MiB volume, offered 20 ms on/off cycles (8 ms at 120 kop/s,
/// 12 ms at 10 kop/s: a mean of 54 kop/s, above FO's sustainable rate
/// and below TSUE's) through windows of 4.
fn burst(method: Method) -> ReplayConfig {
    let bursts = RateCurve::OnOff {
        on_ops_per_s: 120_000.0,
        off_ops_per_s: 10_000.0,
        period_ns: 20 * MILLIS,
        duty: 0.4,
    };
    let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, 8);
    r.ops_per_client = 500;
    r.volume_bytes = 32 << 20;
    r.workload = Workload::Open(OpenLoopSpec::poisson(0.0).with_rate(bursts).with_window(4));
    r
}

pub fn sweep() -> Sweep<Label> {
    let mut cells = Vec::new();
    for method in fig5_methods() {
        let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, 6);
        r.ops_per_client = if tsue_bench::smoke() { 100 } else { 400 };
        r.volume_bytes = 32 << 20;
        cells.push((method.name().to_string(), r));
    }
    for method in [Method::Fo, Method::Tsue] {
        cells.push((format!("{} burst", method.name()), burst(method)));
    }
    for (_, r) in &mut cells {
        r.trace = TraceConfig::on();
        r.validate().expect("traced cell validates");
    }
    let title =
        "Trace sweep: per-stage update latency attribution (AliCloud smoke cell, burst pair)";
    Sweep::new("trace", title, cells, check)
        .columns([
            Column::key("method", |r| r.label.clone()).show("method", plain),
            Column::key("stage", |r| stage(r).stage.name()).show("stage", plain),
            Column::key("count", |r| stage(r).count).show("count", plain),
            Column::key("total_us", |r| stage(r).total_us),
            Column::key("mean_us", |r| stage(r).mean_us).show("mean us", fixed::<2>),
            Column::key("p99_us", |r| stage(r).p99_us).show("p99 us", fixed::<2>),
            Column::shown(
                "share",
                |v| format!("{}%", fixed::<1>(v)),
                |r| 100.0 * stage(r).total_us / update_total_us(r.res).max(1e-9),
            ),
        ])
        .rows(|_, res| update_rows(res).len())
}

fn check(results: &Results<Label>, report: &mut BenchReport) {
    for (label, out) in &results.cells {
        // Finding keys name the cell without spaces: `FO_burst`.
        let name = label.replace(' ', "_");
        let res = &out.result;
        let trace = out.trace.as_ref().expect("traced run returns a trace");

        // Attribution: the retained spans vs the op index's latencies,
        // two independently-derived sums.
        let mut span_us = 0.0f64;
        let mut latency_us = 0.0f64;
        for op in &trace.ops {
            let sum = trace.op_span_sum(op.op).expect("retained ops have spans");
            span_us += sum as f64 / 1e3;
            latency_us += op.latency as f64 / 1e3;
        }
        let attribution = span_us / latency_us.max(1e-9);

        // Reconciliation: rollup mean vs the metrics-path mean. The rollup
        // is per traced *slice*, so its own span count is its divisor; the
        // latency histogram counts a rare op that spans 4 MiB blocks once,
        // at its latest slice, which keeps the two means within 1%.
        let traced_updates = update_rows(res).iter().map(|r| r.count).max().unwrap_or(0);
        let rollup_mean_us = update_total_us(res) / traced_updates.max(1) as f64;
        let recon_err =
            (rollup_mean_us - res.latency_mean_us).abs() / res.latency_mean_us.max(1e-9);

        report.add_finding(
            &format!("trace_dropped_spans_{name}"),
            res.trace_dropped_spans,
        );
        report.add_finding(&format!("attribution_{name}"), attribution);
        report.add_finding(&format!("recon_err_{name}"), recon_err);
        assert!(
            res.trace_dropped_spans == 0,
            "{label}: run overflowed the default trace budget"
        );
        assert!(
            attribution >= 0.95,
            "{label}: stage spans attribute only {:.1}% of client latency",
            attribution * 100.0
        );
        assert!(
            recon_err < 0.01,
            "{label}: rollup mean {rollup_mean_us:.2} us disagrees with \
             latency_mean_us {:.2}",
            res.latency_mean_us
        );

        // Export the TSUE trace for the inspector and the CI check.
        if name == "TSUE" {
            let dir = report_dir();
            std::fs::create_dir_all(&dir).expect("report dir");
            std::fs::write(dir.join("BENCH_trace.json"), chrome::to_json(trace))
                .expect("chrome trace export");
            std::fs::write(dir.join("BENCH_trace.bin"), binary::to_bytes(trace))
                .expect("binary trace export");
            assert!(
                !trace.spans.is_empty() && !trace.util.is_empty(),
                "exported TSUE trace lacks spans ({}) or utilization lanes ({})",
                trace.spans.len(),
                trace.util.len()
            );
            report.add_finding("trace_spans_tsue", trace.spans.len());
            report.add_finding("trace_util_lanes_tsue", trace.util.len());
        }
    }

    // The burst pair: one schedule, FO falls behind it and TSUE rides it.
    let fo = results.get(|l| l == "FO burst");
    let tsue = results.get(|l| l == "TSUE burst");
    // The update path's `queue_wait` stage p99 (0 when no update waited).
    let wait = |res: &RunResult| {
        let row = update_rows(res)
            .into_iter()
            .find(|r| r.stage == Stage::QueueWait);
        row.map_or(0.0, |r| r.p99_us)
    };
    println!();
    for res in [fo, tsue] {
        println!(
            "  -> burst: {:>4} offered {:>6}/s, goodput {:>6}/s, queue p99 {:.1} ms, \
             queue_wait p99 {:.1} ms ({})",
            res.method,
            kfmt(res.offered_ops_per_s),
            kfmt(res.goodput_ops_per_s),
            res.queue_delay_p99_us / 1e3,
            wait(res) / 1e3,
            if res.saturated { "SAT" } else { "ok" },
        );
        let m = res.method.to_lowercase();
        report.add_finding(&format!("burst_goodput_{m}"), res.goodput_ops_per_s);
        report.add_finding(&format!("burst_queue_p99_us_{m}"), res.queue_delay_p99_us);
        report.add_finding(&format!("burst_queue_wait_p99_us_{m}"), wait(res));
    }
    assert!(
        tsue.goodput_ops_per_s > fo.goodput_ops_per_s,
        "burst: TSUE's goodput ({:.0}/s) must exceed FO's ({:.0}/s)",
        tsue.goodput_ops_per_s,
        fo.goodput_ops_per_s
    );
    assert!(
        tsue.queue_delay_p99_us < fo.queue_delay_p99_us,
        "burst: TSUE's queue p99 ({:.0} us) must be below FO's ({:.0} us)",
        tsue.queue_delay_p99_us,
        fo.queue_delay_p99_us
    );
    assert!(
        wait(fo) > wait(tsue),
        "burst: FO's queue_wait p99 ({:.0} us) must exceed TSUE's ({:.0} us)",
        wait(fo),
        wait(tsue)
    );
    assert!(
        fo.saturated,
        "FO burst: FO must fall behind the {} ops/s offered schedule",
        kfmt(fo.offered_ops_per_s)
    );
    assert!(
        !tsue.saturated,
        "TSUE burst: TSUE must ride the schedule FO falls behind"
    );

    println!(
        "perfetto trace: {} (load at ui.perfetto.dev)",
        report_dir().join("BENCH_trace.json").display()
    );
}
