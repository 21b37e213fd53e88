//! `trace_dump` — inspector for the binary trace logs a traced replay
//! emits ([`ecfs::telemetry::binary`]).
//!
//! ```text
//! trace_dump <trace.bin>             stage table + waterfall of the slowest ops
//! trace_dump <a.bin> <b.bin>         method-vs-method per-stage diff
//! trace_dump --check <trace.json>    validate a Chrome Trace Event export (CI)
//! ```
//!
//! The waterfall answers the question the stage spans exist for: *where
//! does a slow op's latency go* — queue wait at admission, the data-node
//! disk, the parity fan-out, or the ack hop. The diff mode puts two
//! methods' breakdowns side by side (e.g. TSUE vs FO under the same
//! bursty arrivals) so the collapse shows up as numbers, not vibes.

use std::collections::HashMap;
use std::process::exit;

use ecfs::telemetry::{binary, OpClass, OpRecord, Span, Stage, Trace, STAGES};

fn usage() -> ! {
    eprintln!("usage: trace_dump <trace.bin> [other.bin] | trace_dump --check <trace.json>");
    exit(2);
}

fn load(path: &str) -> Trace {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("trace_dump: cannot read {path}: {e}");
        exit(2);
    });
    binary::from_bytes(&bytes).unwrap_or_else(|e| {
        eprintln!("trace_dump: {path} is not a trace log: {e}");
        exit(2);
    })
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Per-(class, stage) aggregate over every retained op span.
fn stage_totals(trace: &Trace) -> HashMap<(u16, u16), (u64, u64)> {
    let mut totals: HashMap<(u16, u16), (u64, u64)> = HashMap::new();
    for s in &trace.spans {
        if s.class == OpClass::Background.id() {
            continue;
        }
        let cell = totals.entry((s.class, s.kind)).or_default();
        cell.0 += 1;
        cell.1 += s.dur();
    }
    totals
}

fn print_stage_table(trace: &Trace) {
    let totals = stage_totals(trace);
    println!("per-stage breakdown ({}):", trace.method);
    println!(
        "  {:<12} {:<12} {:>8} {:>12} {:>10} {:>7}",
        "class", "stage", "spans", "total us", "mean us", "share"
    );
    for class in [OpClass::Update, OpClass::Read, OpClass::Write] {
        let class_total: u64 = STAGES
            .iter()
            .filter_map(|st| totals.get(&(class.id(), st.id())))
            .map(|&(_, ns)| ns)
            .sum();
        if class_total == 0 {
            continue;
        }
        for stage in STAGES {
            let Some(&(count, ns)) = totals.get(&(class.id(), stage.id())) else {
                continue;
            };
            println!(
                "  {:<12} {:<12} {:>8} {:>12.1} {:>10.2} {:>6.1}%",
                class.name(),
                stage.name(),
                count,
                us(ns),
                us(ns) / count.max(1) as f64,
                100.0 * ns as f64 / class_total as f64,
            );
        }
    }
}

/// The retained spans of one op, in recorded (stage) order.
fn spans_of(trace: &Trace, op: u64) -> Vec<&Span> {
    trace
        .spans
        .iter()
        .filter(|s| s.op == op && s.class != OpClass::Background.id())
        .collect()
}

fn print_waterfall(trace: &Trace, top: usize) {
    let mut ops: Vec<&OpRecord> = trace.ops.iter().collect();
    ops.sort_by_key(|o| std::cmp::Reverse(o.latency));
    let slowest = &ops[..ops.len().min(top)];
    println!();
    println!(
        "slowest {} ops (stage waterfall, 1 char ~ latency/48):",
        slowest.len()
    );
    for op in slowest {
        let spans = spans_of(trace, op.op);
        println!(
            "  op {:>6} client {:>3} {:<6} {:>10.1} us",
            op.op,
            op.client,
            op.class.name(),
            us(op.latency),
        );
        let scale = (op.latency.max(1) as f64) / 48.0;
        for s in &spans {
            let width = ((s.dur() as f64 / scale).round() as usize).min(60);
            let stage = Stage::from_id(s.kind).map_or("?", |st| st.name());
            println!(
                "    {:<12} {:>10.1} us  |{}",
                stage,
                us(s.dur()),
                "#".repeat(width),
            );
        }
    }
}

fn print_attribution(trace: &Trace) {
    let mut span_ns = 0u64;
    let mut latency_ns = 0u64;
    for op in &trace.ops {
        span_ns += spans_of(trace, op.op).iter().map(|s| s.dur()).sum::<u64>();
        latency_ns += op.latency;
    }
    let ratio = if latency_ns == 0 {
        1.0
    } else {
        span_ns as f64 / latency_ns as f64
    };
    println!();
    println!(
        "attribution: {:.2}% of client-observed latency named by stages ({} ops, {} spans, {} dropped)",
        100.0 * ratio,
        trace.ops.len(),
        trace.spans.len(),
        trace.dropped,
    );
}

fn print_diff(a: &Trace, b: &Trace) {
    let (ta, tb) = (stage_totals(a), stage_totals(b));
    println!(
        "update-path stage means, {} vs {} (us/op):",
        a.method, b.method
    );
    println!(
        "  {:<12} {:>12} {:>12} {:>9}",
        "stage", a.method, b.method, "ratio"
    );
    for stage in STAGES {
        let key = (OpClass::Update.id(), stage.id());
        let mean = |t: &HashMap<(u16, u16), (u64, u64)>| {
            t.get(&key).map(|&(count, ns)| us(ns) / count.max(1) as f64)
        };
        let (ma, mb) = (mean(&ta), mean(&tb));
        if ma.is_none() && mb.is_none() {
            continue;
        }
        let (ma, mb) = (ma.unwrap_or(0.0), mb.unwrap_or(0.0));
        let ratio = if ma > 0.0 {
            format!("{:.2}x", mb / ma)
        } else {
            "-".to_string()
        };
        println!(
            "  {:<12} {:>12.2} {:>12.2} {:>9}",
            stage.name(),
            ma,
            mb,
            ratio
        );
    }
}

/// Validates a Chrome Trace Event export with
/// [`tsue_bench::report::check_chrome_trace`]. The CI trace leg runs this
/// on the sweep's `BENCH_trace.json`.
fn check(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("trace_dump: cannot read {path}: {e}");
        exit(2);
    });
    match tsue_bench::report::check_chrome_trace(&text) {
        Ok(timed) => {
            println!("ok: {path}: {timed} timed events, all lanes monotone");
            exit(0);
        }
        Err(e) => {
            eprintln!("trace_dump: {path}: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, path] if flag == "--check" => check(path),
        [path] => {
            let trace = load(path);
            print_stage_table(&trace);
            print_waterfall(&trace, 8);
            print_attribution(&trace);
        }
        [a, b] => {
            let (ta, tb) = (load(a), load(b));
            print_diff(&ta, &tb);
        }
        _ => usage(),
    }
}
