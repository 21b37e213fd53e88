//! The two `engine-*` workloads: one writer thread drives the real-byte
//! `TsueEngine` (its recycler is the second thread) through a seeded trace,
//! then flushes and verifies parity.

use std::time::Instant;

use crate::adapter::engine::{inputs, Engine};
use crate::adapter::replay::Family;
use crate::spans::Spans;
use crate::stats::{median, quantile_sorted, Digest};
use crate::{Outcome, Run};

/// `(family, 4 KiB requests only, trace ops per pass)`: a pass of either
/// workload takes about two seconds on the reference host.
fn shape(workload: &str) -> (Family, bool, usize) {
    match workload {
        "engine-large" => (Family::Ali, false, 40_000),
        "engine-small" => (Family::Ten, true, 300_000),
        other => unreachable!("not an engine workload: {other}"),
    }
}

/// What one pass measured.
struct Pass {
    setup_s: f64,
    new_s: f64,
    /// First call issued → `flush` returned.
    busy_s: f64,
    flush_tail_s: f64,
    verify_s: f64,
    calls: usize,
    updates: u64,
    reads: u64,
    /// Wall time of one `update` call, µs: median, p99, p99.9 and mean. The
    /// samples themselves die with the pass, so the process's peak resident
    /// set does not grow with the number of passes.
    update_us: [f64; 4],
    /// Median wall time of one `read` call, µs.
    read_p50_us: f64,
    update_bytes: u64,
    acked: u64,
    applied: u64,
    verified: bool,
}

/// One pass: generate the inputs, build the engine, issue every call from
/// this thread, flush, verify. With `spans`, every stage and every call is
/// recorded (one call in a hundred kept as a span of its own).
fn pass(workload: &str, seed: u64, spans: Option<(&mut Spans, u32)>) -> Pass {
    let (family, only_4k, trace_ops) = shape(workload);
    let t_start = Instant::now();
    let inputs = inputs(family, only_4k, trace_ops, seed);
    let t_inputs = Instant::now();
    let engine = Engine::new();
    let t_built = Instant::now();

    let calls = inputs.ops.len();
    let mut update_ns = Vec::with_capacity(calls);
    let mut read_ns = Vec::with_capacity(calls / 4);
    let mut update_bytes = 0u64;
    // The span log, this pass's cell id, and the span every call hangs off.
    let mut tracer = spans.map(|(s, cell)| {
        s.add("engine.inputs", t_start, t_inputs, None, cell);
        s.add("engine.new", t_inputs, t_built, None, cell);
        let issue = s.add("engine.issue", t_built, t_built, None, cell);
        (s, cell, issue)
    });
    let mut prev = Instant::now();
    let t_first = prev;
    for (i, op) in inputs.ops.iter().enumerate() {
        engine.issue(&inputs, i);
        let now = Instant::now();
        let ns = now.duration_since(prev).as_nanos().min(u32::MAX as u128) as u32;
        if op.read {
            read_ns.push(ns);
        } else {
            update_ns.push(ns);
            update_bytes += op.len as u64;
        }
        if let Some((s, _, issue)) = tracer.as_mut() {
            let name = if op.read {
                "engine.read"
            } else {
                "engine.update"
            };
            s.leaf(name, prev, now, *issue, i % 100 == 0);
        }
        prev = now;
    }
    let t_acked = prev;
    engine.flush();
    let t_flushed = Instant::now();
    let verified = engine.verify_parity();
    let t_verified = Instant::now();
    if let Some((s, cell, issue)) = tracer {
        s.end(issue, t_acked);
        s.add("engine.flush", t_acked, t_flushed, None, cell);
        s.add("engine.verify", t_flushed, t_verified, None, cell);
    }
    update_ns.sort_unstable();
    read_ns.sort_unstable();
    let us = |ns: u32| ns as f64 / 1e3;
    let mean_ns = update_ns.iter().map(|&n| n as f64).sum::<f64>() / update_ns.len() as f64;
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Pass {
        setup_s: secs(t_start, t_built),
        new_s: secs(t_inputs, t_built),
        busy_s: secs(t_first, t_flushed),
        flush_tail_s: secs(t_acked, t_flushed),
        verify_s: secs(t_flushed, t_verified),
        calls,
        updates: update_ns.len() as u64,
        reads: read_ns.len() as u64,
        update_us: [
            us(quantile_sorted(&update_ns, 0.50)),
            us(quantile_sorted(&update_ns, 0.99)),
            us(quantile_sorted(&update_ns, 0.999)),
            mean_ns / 1e3,
        ],
        read_p50_us: us(quantile_sorted(&read_ns, 0.50)),
        update_bytes,
        acked: engine.acked_updates(),
        applied: engine.applied_ranges(),
        verified,
    }
}

/// Runs an `engine-*` workload and derives its metrics.
pub fn run(workload: &str, run: &Run, spans: &mut Spans) -> Outcome {
    let mut o = Outcome::default();
    // Untimed warm-up on a throw-away engine: 5 % of a pass.
    {
        let (family, only_4k, trace_ops) = shape(workload);
        let warm = inputs(family, only_4k, trace_ops / 20, run.input_seed());
        let engine = Engine::new();
        (0..warm.ops.len()).for_each(|i| engine.issue(&warm, i));
        engine.flush();
    }

    let start = Instant::now();
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    loop {
        passes.push(pass(workload, run.input_seed(), None));
        if run.traced {
            let cell = traced.len() as u32 + 1;
            traced.push(pass(workload, run.input_seed(), Some((&mut *spans, cell))));
        }
        if !run.fits_another(start, passes.len()) {
            break;
        }
    }

    let first = &passes[0];
    let mut digest = Digest::default();
    for v in [
        first.calls as u64,
        first.updates,
        first.update_bytes,
        first.acked,
        first.applied,
    ] {
        digest.count(v);
    }
    o.digest = digest;
    for (n, p) in passes.iter().chain(&traced).enumerate() {
        o.attempted += p.calls as u64;
        let updates = p.updates;
        if !p.verified {
            o.problems.push(format!("pass {n}: parity does not verify"));
            o.failed += p.calls as u64;
        } else if p.acked != updates {
            o.problems
                .push(format!("pass {n}: {} of {updates} updates acked", p.acked));
            o.failed += updates.abs_diff(p.acked);
        }
        if (p.calls, p.update_bytes, p.acked, p.applied)
            != (first.calls, first.update_bytes, first.acked, first.applied)
        {
            o.problems
                .push(format!("pass {n} issued or applied a different count"));
        }
    }
    o.notes.push(format!(
        "{} passes of {} calls ({} updates, {} reads); percentiles are per pass, then the median \
         over passes",
        passes.len(),
        first.calls,
        first.updates,
        first.reads
    ));

    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    o.set(
        "host_us_per_op",
        per_pass(&|p| p.busy_s * 1e6 / p.calls as f64),
    );
    o.set("setup_s", per_pass(&|p| p.setup_s));
    for (i, name) in [
        "update_p50_us",
        "update_p99_us",
        "tsue.engine.update_p999_us",
        "tsue.engine.update_mean_us",
    ]
    .into_iter()
    .enumerate()
    {
        o.set(name, per_pass(&|p| p.update_us[i]));
    }
    o.set("tsue.engine.read_p50_us", per_pass(&|p| p.read_p50_us));
    o.set("tsue.engine.new_ms", per_pass(&|p| p.new_s * 1e3));
    o.set("tsue.engine.flush_tail_s", per_pass(&|p| p.flush_tail_s));
    o.set("tsue.engine.verify_s", per_pass(&|p| p.verify_s));
    o.set("tsue.engine.acked_updates", first.acked as f64);
    o.set("tsue.engine.applied_ranges", first.applied as f64);
    o.set(
        "tsue.engine.merged_share",
        1.0 - first.applied as f64 / first.acked as f64,
    );
    o.set(
        "tsue.engine.user_mib_s",
        per_pass(&|p| p.update_bytes as f64 / (1u64 << 20) as f64 / p.busy_s),
    );
    if run.traced {
        // Harness spans are the only tracing an engine run has.
        let overhead: Vec<f64> = passes
            .iter()
            .zip(&traced)
            .map(|(a, b)| b.busy_s / a.busy_s)
            .collect();
        o.set("ecfs.telemetry.trace_overhead", median(&overhead));
    }
    o
}
