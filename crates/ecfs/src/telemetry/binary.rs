//! Compact binary trace log: the format `trace_dump` loads.
//!
//! Fixed-width little-endian records behind an 8-byte magic
//! (`TSUETRC` + version). The format exists because the Chrome JSON
//! export is ~20x larger and lossy (microsecond display units); this one
//! round-trips a [`Trace`] exactly, which is also what the determinism
//! tests pin (same config ⇒ same bytes).

use simdes::Span;

use super::{OpClass, OpRecord, Trace, UtilKind, UtilLane};

const MAGIC: &[u8; 8] = b"TSUETRC\x01";

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serialises a trace to the binary log format.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + trace.spans.len() * 32 + trace.ops.len() * 42);
    out.extend_from_slice(MAGIC);
    let method = trace.method.as_bytes();
    put_u32(&mut out, method.len() as u32);
    out.extend_from_slice(method);
    put_u64(&mut out, trace.dropped);
    put_u64(&mut out, trace.spans.len() as u64);
    for s in &trace.spans {
        put_u32(&mut out, s.lane);
        put_u16(&mut out, s.kind);
        put_u16(&mut out, s.class);
        put_u64(&mut out, s.op);
        put_u64(&mut out, s.start);
        put_u64(&mut out, s.end);
    }
    put_u64(&mut out, trace.ops.len() as u64);
    for o in &trace.ops {
        put_u64(&mut out, o.op);
        put_u64(&mut out, o.client);
        put_u16(&mut out, o.class.id());
        put_u64(&mut out, o.start);
        put_u64(&mut out, o.end);
        put_u64(&mut out, o.latency);
    }
    put_u32(&mut out, trace.util.len() as u32);
    for lane in &trace.util {
        put_u16(&mut out, lane.kind.id());
        put_u32(&mut out, lane.id);
        put_u64(&mut out, lane.bucket_ns);
        put_u64(&mut out, lane.busy.len() as u64);
        for &b in &lane.busy {
            put_u64(&mut out, b);
        }
    }
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("truncated trace at byte {}", self.pos))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Parses a binary trace log.
pub fn from_bytes(bytes: &[u8]) -> Result<Trace, String> {
    let mut c = Cursor { bytes, pos: 0 };
    if c.take(8)? != MAGIC {
        return Err("not a TSUE trace (bad magic)".to_string());
    }
    let method_len = c.u32()? as usize;
    let method = String::from_utf8(c.take(method_len)?.to_vec())
        .map_err(|_| "method name is not UTF-8".to_string())?;
    let dropped = c.u64()?;
    let n_spans = c.u64()? as usize;
    let mut spans = Vec::with_capacity(n_spans.min(1 << 24));
    for _ in 0..n_spans {
        spans.push(Span {
            lane: c.u32()?,
            kind: c.u16()?,
            class: c.u16()?,
            op: c.u64()?,
            start: c.u64()?,
            end: c.u64()?,
        });
    }
    let n_ops = c.u64()? as usize;
    let mut ops = Vec::with_capacity(n_ops.min(1 << 24));
    for _ in 0..n_ops {
        ops.push(OpRecord {
            op: c.u64()?,
            client: c.u64()?,
            class: {
                let id = c.u16()?;
                OpClass::from_id(id).ok_or_else(|| format!("bad op class {id}"))?
            },
            start: c.u64()?,
            end: c.u64()?,
            latency: c.u64()?,
        });
    }
    let n_util = c.u32()? as usize;
    let mut util = Vec::with_capacity(n_util.min(1 << 16));
    for _ in 0..n_util {
        let kind = {
            let id = c.u16()?;
            UtilKind::from_id(id).ok_or_else(|| format!("bad util kind {id}"))?
        };
        let id = c.u32()?;
        let bucket_ns = c.u64()?;
        let len = c.u64()? as usize;
        let mut busy = Vec::with_capacity(len.min(1 << 24));
        for _ in 0..len {
            busy.push(c.u64()?);
        }
        util.push(UtilLane {
            kind,
            id,
            bucket_ns,
            busy,
        });
    }
    if c.pos != bytes.len() {
        return Err(format!("trailing bytes at {}", c.pos));
    }
    Ok(Trace {
        method,
        spans,
        ops,
        util,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::super::Stage;
    use super::*;

    #[test]
    fn round_trips_exactly() {
        let trace = Trace {
            method: "TSUE".to_string(),
            spans: vec![Span {
                lane: 9,
                kind: Stage::LogAppend.id(),
                class: OpClass::Update.id(),
                op: 42,
                start: 1_000_000,
                end: 1_234_567,
            }],
            ops: vec![OpRecord {
                op: 42,
                client: 9,
                class: OpClass::Update,
                start: 1_000_000,
                end: 1_234_567,
                latency: 234_567,
            }],
            util: vec![UtilLane {
                kind: UtilKind::Spine,
                id: 0,
                bucket_ns: 10_000_000,
                busy: vec![1, 2, 3],
            }],
            dropped: 7,
        };
        let bytes = to_bytes(&trace);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, trace);
        // Identical traces serialise to identical bytes — the property
        // the run-twice determinism pin compares.
        assert_eq!(to_bytes(&back), bytes);
    }

    #[test]
    fn rejects_corrupt_input() {
        assert!(from_bytes(b"nonsense").is_err());
        let trace = Trace {
            method: "FO".to_string(),
            spans: Vec::new(),
            ops: Vec::new(),
            util: Vec::new(),
            dropped: 0,
        };
        let mut bytes = to_bytes(&trace);
        assert!(from_bytes(&bytes[..bytes.len() - 1]).is_err(), "truncated");
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err(), "trailing bytes");
    }
}
