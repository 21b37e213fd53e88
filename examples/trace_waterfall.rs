//! Where does a burst's latency go? The tracing layer answers in stages.
//!
//! The `open_loop` example shows *that* FO collapses under bursts TSUE
//! absorbs; this one shows *where*. Both methods replay the identical
//! bursty open-loop schedule with tracing armed, and the per-stage rollup
//! (`RunResult::stage_breakdown`) is printed side by side as a p99
//! waterfall. The headline is in the `queue_wait` row: FO's parity
//! read-modify-write makes each update slow enough that bursts pile up at
//! admission, so almost all of its p99 latency is *waiting*, while TSUE's
//! replicated log append keeps service fast and the queue drained.
//!
//! Run with: `cargo run --release -p tsue-examples --example trace_waterfall`

use ecfs::prelude::*;
use ecfs::telemetry::{OpClass, StageRow, STAGES};

fn replay(method: Method) -> ReplayConfig {
    // The open_loop example's schedule: 20 ms cycles, 8 ms bursts at
    // 120 kop/s — mean 54 kop/s, between FO's knee and TSUE's.
    let bursts = RateCurve::OnOff {
        on_ops_per_s: 120_000.0,
        off_ops_per_s: 10_000.0,
        period_ns: 20 * simdes::units::MILLIS,
        duty: 0.4,
    };
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = 8;
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = 500;
    r.volume_bytes = 32 << 20;
    r.workload = Workload::Open(OpenLoopSpec::poisson(0.0).with_rate(bursts).with_window(4));
    r.trace = TraceConfig::on();
    r.validate().expect("traced config validates");
    r
}

/// The Update-class rows, in stage order.
fn update_rows(result: &RunResult) -> Vec<&StageRow> {
    STAGES
        .iter()
        .filter_map(|&stage| {
            result
                .stage_breakdown
                .iter()
                .find(|r| r.class == OpClass::Update && r.stage == stage)
        })
        .collect()
}

fn bar(us: f64, scale: f64) -> String {
    "#".repeat(((us / scale).round() as usize).min(40))
}

fn main() {
    println!("Replaying the open_loop burst schedule with tracing armed...\n");
    let fo = Replay::run(&replay(Method::Fo)).result;
    let tsue = Replay::run(&replay(Method::Tsue)).result;
    assert_eq!(fo.trace_dropped_spans, 0);
    assert_eq!(tsue.trace_dropped_spans, 0);

    let (fo_rows, tsue_rows) = (update_rows(&fo), update_rows(&tsue));
    // One char per fixed slice of the worse method's p99, so the two
    // columns are directly comparable.
    let worst = fo_rows
        .iter()
        .chain(&tsue_rows)
        .map(|r| r.p99_us)
        .fold(0.0f64, f64::max);
    let scale = (worst / 40.0).max(1e-9);

    println!(
        "p99 stage waterfall, update path ({} FO ops vs {} TSUE ops):\n",
        fo.completed_updates, tsue.completed_updates
    );
    println!("  {:<12} {:>28}    {:>28}", "stage", "FO", "TSUE");
    for stage in STAGES {
        let cell = |rows: &[&StageRow]| {
            rows.iter()
                .find(|r| r.stage == stage)
                .map(|r| format!("{:>9.1} us {:<17}", r.p99_us, bar(r.p99_us, scale)))
                .unwrap_or_else(|| format!("{:>9} {:<20}", "-", ""))
        };
        let (f, t) = (cell(&fo_rows), cell(&tsue_rows));
        if f.trim_start().starts_with('-') && t.trim_start().starts_with('-') {
            continue;
        }
        println!("  {:<12} {}  {}", stage.name(), f, t);
    }

    let p99 = |rows: &[&StageRow], stage| {
        rows.iter()
            .find(|r| r.stage == stage)
            .map_or(0.0, |r| r.p99_us)
    };
    let fo_wait = p99(&fo_rows, ecfs::telemetry::Stage::QueueWait);
    let tsue_wait = p99(&tsue_rows, ecfs::telemetry::Stage::QueueWait);
    assert!(fo.saturated, "FO must fall behind the burst schedule");
    assert!(!tsue.saturated, "TSUE must ride the identical schedule");
    assert!(
        fo_wait > tsue_wait,
        "FO's p99 queue wait must dominate TSUE's under saturation"
    );
    println!(
        "\nFO saturates: its p99 admission wait is {:.1} ms against TSUE's \
         {:.1} ms on the identical schedule. The service stages tell the \
         underlying story — FO pays a parity read-modify-write inside every \
         update, TSUE defers that work behind a replicated sequential append, \
         so under bursts FO's queue grows while TSUE's drains.",
        fo_wait / 1e3,
        tsue_wait / 1e3,
    );
}
