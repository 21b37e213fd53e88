//! Chrome Trace Event Format export: the JSON Perfetto and
//! `chrome://tracing` load directly.
//!
//! Layout: three "processes" — pid 1 holds the per-op lifecycle spans
//! (one thread lane per client), pid 2 the background child spans (one
//! lane per node: recycle, repair, maintenance), pid 3 the utilization
//! counters (busy nanoseconds per bucket for each disk / NIC / spine /
//! repair lane). Spans are complete events (`ph:"X"`, `ts`/`dur` in
//! microseconds); utilization lanes are counter events (`ph:"C"`).
//!
//! Events are emitted sorted by `(pid, tid, ts)`, so timestamps are
//! monotone within every lane — the invariant the CI trace leg checks
//! after a parse round-trip. The writer is hand-rolled (no serde in the
//! tree) but emits strictly standard JSON.

use super::{OpClass, Stage, Trace, UtilKind};

/// Microseconds with nanosecond precision, rendered without float drift
/// (`123456 ns` → `"123.456"`).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn push_event(out: &mut String, body: &str) {
    if !out.ends_with('[') {
        out.push(',');
    }
    out.push('\n');
    out.push_str(body);
}

/// Renders the trace as a Chrome Trace Event JSON document.
pub fn to_json(trace: &Trace) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (pid, name) in [
        (1, format!("ops ({})", trace.method)),
        (2, "nodes (background)".to_string()),
        (3, "utilization".to_string()),
    ] {
        push_event(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ),
        );
    }

    // (pid, tid, ts_ns, rendered event) — sorted so every lane is
    // monotone in file order.
    let mut events: Vec<(u32, u32, u64, String)> = Vec::new();
    for span in &trace.spans {
        let stage = Stage::from_id(span.kind).map(Stage::name).unwrap_or("?");
        let class = OpClass::from_id(span.class)
            .map(OpClass::name)
            .unwrap_or("?");
        let pid = if span.class == OpClass::Background.id() {
            2
        } else {
            1
        };
        events.push((
            pid,
            span.lane,
            span.start,
            format!(
                "{{\"name\":\"{stage}\",\"cat\":\"{class}\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\
                 \"args\":{{\"op\":{}}}}}",
                us(span.start),
                us(span.end - span.start),
                span.lane,
                span.op
            ),
        ));
    }
    for lane in &trace.util {
        let name = format!("{}/{}", lane.kind.name(), lane.id);
        let tid = util_tid(lane.kind, lane.id);
        for (i, &busy) in lane.busy.iter().enumerate() {
            let ts = i as u64 * lane.bucket_ns;
            events.push((
                3,
                tid,
                ts,
                format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":3,\
                     \"tid\":{tid},\"args\":{{\"busy_ns\":{busy}}}}}",
                    us(ts)
                ),
            ));
        }
    }
    events.sort_by_key(|e| (e.0, e.1, e.2));
    for (_, _, _, body) in &events {
        push_event(&mut out, body);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!(
        "\"method\":\"{}\",\"dropped_spans\":{}}}}}",
        trace.method, trace.dropped
    ));
    out
}

/// The utilization counter lane id used for a `(kind, id)` pair (exposed
/// so inspectors can map `tid`s back to resources).
pub fn util_tid(kind: UtilKind, id: u32) -> u32 {
    (kind.id() as u32) << 16 | id
}

#[cfg(test)]
mod tests {
    use super::super::{OpRecord, UtilLane};
    use super::*;
    use simdes::Span;

    fn sample_trace() -> Trace {
        Trace {
            method: "FO".to_string(),
            spans: vec![
                Span {
                    lane: 2,
                    kind: Stage::NetSend.id(),
                    class: OpClass::Update.id(),
                    op: 0,
                    start: 1500,
                    end: 2500,
                },
                Span {
                    lane: 1,
                    kind: Stage::Ack.id(),
                    class: OpClass::Update.id(),
                    op: 1,
                    start: 500,
                    end: 800,
                },
                Span {
                    lane: 3,
                    kind: Stage::Repair.id(),
                    class: OpClass::Background.id(),
                    op: 0,
                    start: 0,
                    end: 4000,
                },
            ],
            ops: vec![OpRecord {
                op: 0,
                client: 2,
                class: OpClass::Update,
                start: 1500,
                end: 2500,
                latency: 1000,
            }],
            util: vec![UtilLane {
                kind: UtilKind::Disk,
                id: 3,
                bucket_ns: 1000,
                busy: vec![700, 0, 300],
            }],
            dropped: 0,
        }
    }

    #[test]
    fn json_is_well_formed_and_lane_sorted() {
        let text = to_json(&sample_trace());
        // Ops lane 1 (client 1) precedes lane 2 (client 2); background and
        // counters follow under their own pids.
        let ack = text.find("\"ack\"").unwrap();
        let net = text.find("\"net_send\"").unwrap();
        let repair = text.find("\"repair\"").unwrap();
        let disk = text.find("disk/3").unwrap();
        assert!(ack < net && net < repair && repair < disk);
        assert!(text.contains("\"ts\":1.500,\"dur\":1.000"));
        assert!(text.contains("\"busy_ns\":700"));
        assert!(text.contains("\"dropped_spans\":0"));
        // Balanced braces/brackets (cheap well-formedness check; the CI
        // leg does a full parse via the bench JSON parser).
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn us_renders_exact_nanoseconds() {
        assert_eq!(us(0), "0.000");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(123_456), "123.456");
        assert_eq!(us(1_000_000), "1000.000");
    }
}
