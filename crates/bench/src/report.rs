//! Machine-readable bench reports: a hand-rolled JSON value type, writer,
//! and parser (the compat-shim constraint keeps serde out of the tree).
//!
//! The sweep harness ([`crate::sweep`]) builds one [`BenchReport`] per
//! report value, from the same column list as its printed table, and
//! writes it to `target/bench-report/BENCH_<name>_sweep.json` (override
//! the directory with `TSUE_BENCH_REPORT_DIR`). The value asserts its
//! findings on the typed results; the report is the artifact CI uploads
//! for humans diffing runs. The parser reads JSON back for
//! [`check_chrome_trace`], the validator of the Perfetto trace export.
//!
//! Report schema (version 1):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "sweep": "load_sweep",
//!   "scale": "smoke",
//!   "rows": [ { "method": "TSUE", "rate": 8000.0, ... }, ... ],
//!   "findings": { "knee_rate_TSUE": 256000.0, ... }
//! }
//! ```
//!
//! `rows` holds the value's keyed columns as typed cells, each row ending
//! in the engine-speed cells `sim_events`, `wall_ms` and `events_per_sec`;
//! `findings` holds the value's headline numbers (the quantities its
//! assertions are about).

use std::collections::HashMap;
use std::path::PathBuf;

use ecfs::prelude::RunResult;

/// A JSON value (the subset the reports need).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats serialise to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always carried as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view (`None` for non-numbers — including `null`, which is
    /// how a non-finite value serialises).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises to a JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // Integers print without a fraction so reports diff
                    // cleanly; everything else keeps full precision.
                    if *v == v.trunc() && v.abs() < 9e15 {
                        out.push_str(&format!("{}", *v as i64));
                    } else {
                        out.push_str(&format!("{v}"));
                    }
                } else {
                    // JSON has no NaN/inf: serialise honestly as null so
                    // a reader treats the value as missing, not huge.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so the bound keeps hostile input from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses a JSON document (the writer's subset plus standard escapes).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

/// Parses one value whose enclosing arrays/objects number `depth`.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth == MAX_DEPTH {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let token = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            token
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("bad number {token:?} at byte {start}"))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .ok_or("truncated \\u escape".to_string())?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = parse_hex4(b, *pos + 1)?;
                        let scalar = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: a standard-JSON astral
                            // character arrives as a \uXXXX\uXXXX pair.
                            if b.get(*pos + 5..*pos + 7) != Some(b"\\u") {
                                return Err(format!("unpaired surrogate at byte {}", *pos));
                            }
                            let lo = parse_hex4(b, *pos + 7)?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(format!("bad low surrogate at byte {}", *pos));
                            }
                            *pos += 10;
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            *pos += 4;
                            hi
                        };
                        out.push(char::from_u32(scalar).ok_or("bad \\u escape".to_string())?);
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through untouched).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xc0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

/// The cargo target directory the running binary was built into (the
/// ancestor above the `release`/`debug` profile component), so every sweep
/// writes to one location no matter which package directory cargo set as
/// the working directory.
fn target_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?;
    loop {
        let name = dir.file_name()?.to_str()?;
        if name == "release" || name == "debug" {
            return Some(dir.parent()?.to_path_buf());
        }
        dir = dir.parent()?;
    }
}

/// The directory sweep reports land in: `TSUE_BENCH_REPORT_DIR` if set,
/// else `<cargo target dir>/bench-report`.
pub fn report_dir() -> PathBuf {
    std::env::var_os("TSUE_BENCH_REPORT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            target_dir()
                .unwrap_or_else(|| PathBuf::from("target"))
                .join("bench-report")
        })
}

/// One sweep's machine-readable output: typed table rows plus headline
/// findings, written as `BENCH_<sweep>.json` for CI to archive.
#[derive(Debug, Clone)]
pub struct BenchReport {
    sweep: String,
    rows: Vec<Json>,
    findings: Vec<(String, Json)>,
}

impl BenchReport {
    /// A new, empty report for `sweep`.
    pub fn new(sweep: &str) -> BenchReport {
        BenchReport {
            sweep: sweep.to_string(),
            rows: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Appends one table row: the `(column, value)` cells, then the
    /// engine-speed cells of the run `res` they describe (`sim_events`,
    /// `wall_ms`, `events_per_sec`).
    ///
    /// # Panics
    /// Panics unless `res.events_per_sec` is finite and positive, so no
    /// sweep silently drops the engine-speed trajectory.
    pub fn add_row(&mut self, res: &RunResult, cells: Vec<(&str, Json)>) {
        assert!(
            res.events_per_sec.is_finite() && res.events_per_sec > 0.0,
            "{}: {} row has events_per_sec {}",
            self.sweep,
            res.method,
            res.events_per_sec
        );
        let engine = [
            ("sim_events", res.sim_events.into()),
            ("wall_ms", res.wall_ms.into()),
            ("events_per_sec", res.events_per_sec.into()),
        ];
        self.rows.push(Json::Obj(
            cells
                .into_iter()
                .chain(engine)
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ));
    }

    /// Records a headline finding (the numbers the sweep's shape
    /// assertions are about).
    pub fn add_finding(&mut self, key: &str, value: impl Into<Json>) {
        self.findings.push((key.to_string(), value.into()));
    }

    /// The assembled document.
    pub fn to_json(&self) -> Json {
        let scale = if crate::smoke() {
            "smoke"
        } else if crate::full_scale() {
            "full"
        } else {
            "default"
        };
        Json::Obj(vec![
            ("schema".to_string(), Json::Num(1.0)),
            ("sweep".to_string(), Json::Str(self.sweep.clone())),
            ("scale".to_string(), Json::Str(scale.to_string())),
            ("rows".to_string(), Json::Arr(self.rows.clone())),
            ("findings".to_string(), Json::Obj(self.findings.clone())),
        ])
    }

    /// Writes `BENCH_<sweep>.json` into [`report_dir`], creating the
    /// directory, and prints where it landed.
    ///
    /// # Panics
    /// Panics when the report cannot be written — in CI a silently missing
    /// report would leave nothing to diff.
    pub fn write_and_announce(&self) {
        let dir = report_dir();
        let path = dir.join(format!("BENCH_{}.json", self.sweep));
        let text = self.to_json().render() + "\n";
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, text))
            .expect("bench report must be writable");
        println!("\nbench report: {}", path.display());
    }
}

/// Validates a Chrome Trace Event export and returns its number of timed
/// (`X` complete and `C` counter) events: the text parses as JSON with a
/// `traceEvents` array, every timed event has a numeric `pid`, `tid` and
/// non-negative `ts` (plus `dur` for `X`), `ts` is monotone per
/// `(pid, tid)` lane in file order, and there is at least one timed event.
pub fn check_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = parse(text).map_err(|e| format!("JSON parse failed: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .ok_or("no traceEvents array")?;
    let mut lanes: HashMap<(u64, u64), f64> = HashMap::new();
    let mut timed = 0;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(|p| p.as_str()).unwrap_or("");
        if ph != "X" && ph != "C" {
            continue;
        }
        let field = |name: &str| {
            ev.get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("event {i} lacks numeric {name}"))
        };
        let (pid, tid, ts) = (field("pid")? as u64, field("tid")? as u64, field("ts")?);
        let dur = if ph == "X" { field("dur")? } else { 0.0 };
        if ts < 0.0 || dur < 0.0 {
            return Err(format!("event {i} has negative ts/dur"));
        }
        if let Some(prev) = lanes.insert((pid, tid), ts) {
            if prev > ts {
                return Err(format!("lane ({pid},{tid}) not monotone at event {i}"));
            }
        }
        timed += 1;
    }
    if timed == 0 {
        return Err("no complete/counter events".to_string());
    }
    Ok(timed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfs::prelude::{Arc, Fo, Replay, TraceFamily};

    #[test]
    fn render_parse_roundtrip() {
        let doc = Json::Obj(vec![
            (
                "name".to_string(),
                Json::Str("topo \"sweep\"\n".to_string()),
            ),
            ("count".to_string(), Json::Num(42.0)),
            ("ratio".to_string(), Json::Num(1.5)),
            ("neg".to_string(), Json::Num(-0.25)),
            ("big".to_string(), Json::Num(1.0e18)),
            ("ok".to_string(), Json::Bool(true)),
            ("missing".to_string(), Json::Null),
            (
                "rows".to_string(),
                Json::Arr(vec![Json::Num(1.0), Json::Str("ü≈".to_string())]),
            ),
            ("empty_arr".to_string(), Json::Arr(vec![])),
            ("empty_obj".to_string(), Json::Obj(vec![])),
        ]);
        let text = doc.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(42.0).render(), "42");
        assert_eq!(Json::Num(1.5).render(), "1.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn accessors_navigate_reports() {
        let mut rcfg = crate::ssd_replay(4, 2, Arc::new(Fo), TraceFamily::AliCloud, 2);
        rcfg.ops_per_client = 25;
        rcfg.volume_bytes = 32 << 20;
        let res = Replay::run(&rcfg).result;
        let mut report = BenchReport::new("unit_test");
        report.add_row(
            &res,
            vec![("method", "TSUE".into()), ("iops", 123.0.into())],
        );
        report.add_row(&res, vec![("method", "FO".into()), ("iops", 45.0.into())]);
        report.add_finding("winner", "TSUE");
        let doc = report.to_json();
        assert_eq!(doc.get("sweep").unwrap().as_str(), Some("unit_test"));
        let rows = doc.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("iops").unwrap().as_f64(), Some(45.0));
        // The engine cells follow the given cells, taken from the run.
        let Json::Obj(cells) = &rows[0] else {
            panic!("rows are objects")
        };
        let keys: Vec<&str> = cells.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["method", "iops", "sim_events", "wall_ms", "events_per_sec"]
        );
        assert_eq!(
            rows[0].get("sim_events").unwrap().as_f64(),
            Some(res.sim_events as f64)
        );
        assert!(rows[0].get("events_per_sec").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            doc.get("findings").unwrap().get("winner").unwrap().as_str(),
            Some("TSUE")
        );
        // Misses are None, not panics.
        assert!(doc.get("absent").is_none());
        assert!(doc.get("sweep").unwrap().as_f64().is_none());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn parse_rejects_deep_nesting() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128"), "{err}");
        let nested = format!("{}{}", "[".repeat(100), "]".repeat(100));
        assert!(parse(&nested).is_ok());
    }

    #[test]
    fn chrome_check_rejects_bad_traces() {
        let trace = |events: &str| format!("{{\"traceEvents\":[{events}]}}");
        let x = |ts: f64| format!("{{\"ph\":\"X\",\"pid\":1,\"tid\":2,\"ts\":{ts},\"dur\":1}}");
        let ok = trace(&format!("{},{}", x(1.0), x(2.0)));
        assert_eq!(check_chrome_trace(&ok), Ok(2));
        assert!(check_chrome_trace(&trace(&format!("{},{}", x(2.0), x(1.0)))).is_err());
        assert!(check_chrome_trace(&trace(&x(-1.0))).is_err());
        assert!(check_chrome_trace(&trace("{\"ph\":\"M\"}")).is_err());
        assert!(check_chrome_trace("{}").is_err());
    }

    #[test]
    fn parse_accepts_standard_json_extras() {
        let doc = parse(" {\n \"a\" : [ 1 , 2.5e3 , \"\\u0041\\t/\" ] } ").unwrap();
        let arr = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[1].as_f64(), Some(2500.0));
        assert_eq!(arr[2].as_str(), Some("A\t/"));
        // Astral characters escaped the standard JSON way: surrogate pairs.
        let emoji = parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(emoji.as_str(), Some("\u{1f600}"));
        assert!(parse("\"\\ud83d\"").is_err(), "unpaired high surrogate");
        assert!(parse("\"\\ud83d\\u0041\"").is_err(), "bad low surrogate");
    }
}
