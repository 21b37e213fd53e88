//! The tracing contract, pinned end to end:
//!
//! 1. **Off is free, on is invisible** — the default `TraceConfig` arms
//!    nothing and a traced run reproduces every deterministic legacy
//!    `RunResult` field of the untraced run byte for byte: tracing changes
//!    what is *recorded*, never what is *simulated*.
//! 2. **Same config ⇒ same bytes** — with fault *and* maintenance plans
//!    armed, two runs serialise to the identical binary log (extending
//!    `tests/determinism.rs` to the span stream).
//! 3. **Exact attribution** — for every method and every traced op, the
//!    sum of the op's stage spans equals the client-observed latency
//!    within 1 ns (the spans partition `[issued_at, ack]` by
//!    construction, and the latency is derived independently on the
//!    metrics path).

use ecfs::prelude::*;
use ecfs::telemetry::{binary, chrome};

fn replay(method: Method, clients: u64, ops: usize) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = clients;
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = ops;
    r.volume_bytes = 32 << 20;
    r
}

fn armed_plans(r: &mut ReplayConfig) {
    r.faults = FaultPlan::new()
        .fail_node(5 * simdes::units::MILLIS, 2)
        .with_repair_bandwidth(200 << 20);
    r.maintenance = MaintenancePlan::new()
        .with_scrub(ScrubConfig {
            bytes_per_sec: 8 << 30,
        })
        .with_lse(LseConfig {
            per_device: 4,
            span_bytes: 8 << 20,
        })
        .with_rebalance();
}

/// Canonical rendering of every deterministic non-trace `RunResult` field:
/// the full Debug output with the trace harvest and the wall-clock
/// measurements forced to fixed values. Exhaustive by construction — a new
/// field shows up here automatically.
fn legacy_canon(r: &RunResult) -> String {
    let mut r = r.clone();
    r.stage_breakdown = Vec::new();
    r.trace_dropped_spans = 0;
    r.wall_ms = 0.0;
    r.events_per_sec = 0.0;
    r.setup_ms = 0.0;
    format!("{r:?}")
}

#[test]
fn tracing_changes_no_legacy_field() {
    let mut off = replay(Method::Tsue, 3, 100);
    armed_plans(&mut off);
    let mut on = off.clone();
    on.trace = TraceConfig::on();
    on.validate().expect("traced config validates");

    let r_off = Replay::run(&off).result;
    let RunOutcome {
        result: r_on,
        trace,
    } = Replay::run(&on);

    assert_eq!(
        legacy_canon(&r_off),
        legacy_canon(&r_on),
        "tracing perturbed the simulation"
    );
    assert!(r_off.stage_breakdown.is_empty(), "off-run recorded rollup");
    assert!(!r_on.stage_breakdown.is_empty(), "on-run rollup missing");
    assert_eq!(r_on.trace_dropped_spans, 0);
    let trace = trace.expect("enabled run returns a trace");
    assert!(!trace.spans.is_empty());
    assert!(!trace.util.is_empty(), "utilization lanes missing");
}

#[test]
fn trace_is_bit_identical_across_runs() {
    let mut rcfg = replay(Method::Tsue, 3, 100);
    armed_plans(&mut rcfg);
    rcfg.trace = TraceConfig::on();
    rcfg.validate().expect("traced config validates");

    let first = Replay::run(&rcfg);
    let second = Replay::run(&rcfg);
    assert_eq!(
        binary::to_bytes(&first.trace.expect("first trace")),
        binary::to_bytes(&second.trace.expect("second trace")),
        "second run's trace diverged from the first"
    );
    assert_eq!(first.result.stage_breakdown, second.result.stage_breakdown);
    assert_eq!(
        first.result.trace_dropped_spans,
        second.result.trace_dropped_spans
    );
}

#[test]
fn stage_spans_partition_client_latency_for_every_method() {
    for method in Method::ALL {
        let mut rcfg = replay(method, 3, 100);
        rcfg.trace = TraceConfig::on();
        let RunOutcome { result, trace } = Replay::run(&rcfg);
        let trace = trace.expect("trace");
        assert_eq!(result.trace_dropped_spans, 0, "{method:?}: dropped spans");
        assert!(
            trace.ops.len() as u64 >= result.completed_updates,
            "{method:?}: ops missing from the trace"
        );
        for op in &trace.ops {
            let sum = trace
                .op_span_sum(op.op)
                .expect("every retained op has spans");
            let latency = op.latency;
            assert!(
                sum.abs_diff(latency) <= 1,
                "{method:?} op {}: span sum {sum} ns != latency {latency} ns",
                op.op
            );
        }
    }
}

#[test]
fn binary_log_round_trips_and_chrome_export_parses() {
    let mut rcfg = replay(Method::Fo, 2, 60);
    rcfg.trace = TraceConfig::on();
    let trace = Replay::run(&rcfg).trace.expect("trace");

    let bytes = binary::to_bytes(&trace);
    let back = binary::from_bytes(&bytes).expect("binary trace parses");
    assert_eq!(back, trace);

    // Timed events carry non-negative ts/dur, monotone per lane in file
    // order (the exporter sorts by (pid, tid, ts)).
    let json = chrome::to_json(&trace);
    let timed = tsue_bench::report::check_chrome_trace(&json);
    assert!(matches!(timed, Ok(n) if n > 0), "{timed:?}");
}

#[test]
fn capacity_is_validated_and_bounds_retention() {
    // A zero budget is rejected at validate() time.
    let mut rcfg = replay(Method::Fo, 2, 60);
    rcfg.trace = TraceConfig::on().with_capacity(0);
    assert!(rcfg.validate().is_err(), "accepted a zero span budget");

    let mut all = replay(Method::Fo, 2, 60);
    all.trace = TraceConfig::on();
    let r_all = Replay::run(&all).result;

    // A tiny capacity drops honestly instead of silently, and bounds
    // retention but never the rollup.
    let mut tiny = replay(Method::Fo, 2, 60);
    tiny.trace = TraceConfig::on().with_capacity(8);
    let out_tiny = Replay::run(&tiny);
    let (r_tiny, t_tiny) = (out_tiny.result, out_tiny.trace);
    assert!(r_tiny.trace_dropped_spans > 0);
    assert_eq!(t_tiny.unwrap().spans.len(), 8);
    assert_eq!(r_tiny.stage_breakdown, r_all.stage_breakdown);
}
