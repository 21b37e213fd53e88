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
//! * `trace_dropped_spans_<m>` — must be 0 at smoke scale (the default
//!   retention budget fits the whole run, so a drop means a leak);
//! * `attribution_<m>` — Σ span durations / Σ op latencies over the
//!   retained ops, must be ≥ 0.95 (it is 1.0 by construction unless a
//!   driver forgets to tag a stage);
//! * `recon_err_<m>` — relative gap between the rollup's mean update
//!   latency (Σ Update-row total / completed updates) and the
//!   independently-derived `latency_mean_us`, must be within 1%.
//!
//! The exported TSUE trace must carry spans and utilization lanes.

use ecfs::prelude::*;
use ecfs::telemetry::{binary, chrome, OpClass, StageRow};
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, plain, Results, Row, Sweep};
use tsue_bench::{fig5_methods, report_dir, ssd_replay, BenchReport};

/// A cell: its method's name.
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

pub fn sweep() -> Sweep<Label> {
    let mut cells = Vec::new();
    for method in fig5_methods() {
        let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, 6);
        r.ops_per_client = if tsue_bench::smoke() { 100 } else { 400 };
        r.volume_bytes = 32 << 20;
        r.trace = TraceConfig::on();
        r.validate().expect("traced cell validates");
        cells.push((method.name().to_string(), r));
    }
    let title = "Trace sweep: per-stage update latency attribution (AliCloud smoke cell)";
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
    for (name, out) in &results.cells {
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
            "{name}: smoke-scale run overflowed the default trace budget"
        );
        assert!(
            attribution >= 0.95,
            "{name}: stage spans attribute only {:.1}% of client latency",
            attribution * 100.0
        );
        assert!(
            recon_err < 0.01,
            "{name}: rollup mean {rollup_mean_us:.2} us disagrees with \
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

    println!(
        "perfetto trace: {} (load at ui.perfetto.dev)",
        report_dir().join("BENCH_trace.json").display()
    );
}
