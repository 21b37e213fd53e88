//! The parsed method-spec grammar: how experiments name an update method
//! *plus* the node-local cache/staging decorators layered in front of it.
//!
//! A spec is `+`-separated segments, decorators first, ending in the name
//! of one of the seven built-in methods ([`super::builtins`]), in any case:
//!
//! ```text
//! TSUE                            # a bare driver, no decorators
//! lru(64MiB)+FO                   # 64 MiB LRU read cache over FO
//! stage(8MiB,2ms)+lru(64MiB)+PLR  # write staging + read cache over PLR
//! ```
//!
//! Decorator segments are `name(args)`:
//!
//! * `lru(SIZE)` — a node-local LRU read cache of `SIZE` bytes per node
//!   ([`crate::cache::PageCache`]);
//! * `stage(SIZE,AGE)` — a write-coalescing staging buffer flushed at
//!   `SIZE` staged bytes or `AGE` after the first unflushed byte.
//!
//! `SIZE` is an integer with a binary unit (`B`, `KiB`, `MiB`, `GiB`);
//! `AGE` an integer duration (`ns`, `us`, `ms`, `s`). Parsing is
//! case-insensitive; [`MethodSpec`]'s `Display` renders the canonical form
//! (largest exact unit), so `parse → display → parse` is the identity —
//! the property `crates/ecfs/tests/spec_props.rs` pins.
//!
//! [`MethodSpec::parse`] returns a typed [`ResolveError`]; [`build_method`]
//! turns a spec into a ready [`UpdateMethod`]. A driver defined outside
//! this crate has no spec name: it is passed by handle to
//! [`crate::config::ClusterConfigBuilder::method`].
//!
//! ```
//! use ecfs::methods::{build_method, ResolveError, UpdateMethod};
//! use ecfs::MethodSpec;
//!
//! let tsue = build_method(&MethodSpec::parse("tsue").unwrap()).unwrap();
//! assert_eq!(tsue.name(), "TSUE");
//!
//! // A decorated spec wraps the base driver in the cache layer.
//! let cached = build_method(&"lru(64MiB)+cord".parse().unwrap()).unwrap();
//! assert_eq!(cached.name(), "lru(64MiB)+CoRD");
//!
//! // Failures are typed.
//! assert_eq!(
//!     build_method(&MethodSpec::parse("no-such-method").unwrap()).unwrap_err(),
//!     ResolveError::UnknownMethod("no-such-method".to_string())
//! );
//! ```

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use super::{builtins, UpdateMethod};
use crate::cache::{Cached, PAGE_BYTES};

/// A cache-layer decorator in front of a base method, as parsed from one
/// `name(args)` spec segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decorator {
    /// A node-local LRU read cache: `lru(SIZE)`.
    Cache {
        /// Cache capacity in bytes.
        bytes: u64,
    },
    /// A write-coalescing staging buffer: `stage(SIZE,AGE)`.
    Stage {
        /// Flush threshold: staged (union) bytes per node.
        bytes: u64,
        /// Flush age: nanoseconds after the first unflushed byte.
        age_ns: u64,
    },
}

impl fmt::Display for Decorator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decorator::Cache { bytes } => write!(f, "lru({})", FmtBytes(*bytes)),
            Decorator::Stage { bytes, age_ns } => {
                write!(f, "stage({},{})", FmtBytes(*bytes), FmtDur(*age_ns))
            }
        }
    }
}

/// Canonical byte-size rendering: the largest binary unit that divides
/// exactly, so `parse → display → parse` round-trips.
struct FmtBytes(u64);

impl fmt::Display for FmtBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b > 0 && b.is_multiple_of(1 << 30) {
            write!(f, "{}GiB", b >> 30)
        } else if b > 0 && b.is_multiple_of(1 << 20) {
            write!(f, "{}MiB", b >> 20)
        } else if b > 0 && b.is_multiple_of(1 << 10) {
            write!(f, "{}KiB", b >> 10)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// Canonical duration rendering: the largest unit that divides exactly.
struct FmtDur(u64);

impl fmt::Display for FmtDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns > 0 && ns.is_multiple_of(1_000_000_000) {
            write!(f, "{}s", ns / 1_000_000_000)
        } else if ns > 0 && ns.is_multiple_of(1_000_000) {
            write!(f, "{}ms", ns / 1_000_000)
        } else if ns > 0 && ns.is_multiple_of(1_000) {
            write!(f, "{}us", ns / 1_000)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// Why a method spec failed to parse or resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The spec (or one of its `+`-separated segments) is empty.
    EmptySpec,
    /// The base name is not one of the built-ins.
    UnknownMethod(String),
    /// A decorator segment is malformed, duplicated, or carries a bad
    /// argument.
    BadDecorator {
        /// The offending segment (or decorator name), verbatim.
        what: String,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::EmptySpec => write!(f, "empty method spec"),
            ResolveError::UnknownMethod(name) => {
                let builtins = builtins();
                let names: Vec<&str> = builtins.iter().map(|m| m.name()).collect();
                write!(
                    f,
                    "unknown update method {name:?} (expected one of {})",
                    names.join(", ")
                )
            }
            ResolveError::BadDecorator { what, reason } => {
                write!(f, "bad decorator {what:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for ResolveError {}

fn bad(what: &str, reason: impl Into<String>) -> ResolveError {
    ResolveError::BadDecorator {
        what: what.to_string(),
        reason: reason.into(),
    }
}

/// Parses an integer byte size with a binary unit (`B`, `KiB`, `MiB`,
/// `GiB`), case-insensitively.
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, shift) = if let Some(d) = strip_unit(s, "GiB") {
        (d, 30)
    } else if let Some(d) = strip_unit(s, "MiB") {
        (d, 20)
    } else if let Some(d) = strip_unit(s, "KiB") {
        (d, 10)
    } else if let Some(d) = strip_unit(s, "B") {
        (d, 0)
    } else {
        return Err(format!("{s:?} needs a byte unit (B, KiB, MiB, GiB)"));
    };
    let n = parse_u64(digits)?;
    n.checked_shl(shift)
        .filter(|v| v >> shift == n)
        .ok_or_else(|| format!("{s:?} overflows"))
}

/// Parses an integer duration (`ns`, `us`, `ms`, `s`), case-insensitively,
/// into nanoseconds.
pub fn parse_duration(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (digits, scale) = if let Some(d) = strip_unit(s, "ns") {
        (d, 1)
    } else if let Some(d) = strip_unit(s, "us") {
        (d, 1_000)
    } else if let Some(d) = strip_unit(s, "ms") {
        (d, 1_000_000)
    } else if let Some(d) = strip_unit(s, "s") {
        (d, 1_000_000_000)
    } else {
        return Err(format!("{s:?} needs a duration unit (ns, us, ms, s)"));
    };
    let n = parse_u64(digits)?;
    n.checked_mul(scale)
        .ok_or_else(|| format!("{s:?} overflows"))
}

/// Case-insensitive unit suffix strip, returning the digit prefix.
fn strip_unit<'a>(s: &'a str, unit: &str) -> Option<&'a str> {
    if s.len() < unit.len() {
        return None;
    }
    let split = s.len() - unit.len();
    // `unit` is ASCII; a non-ASCII boundary cannot match it.
    let (head, tail) = (s.get(..split)?, s.get(split..)?);
    tail.eq_ignore_ascii_case(unit).then_some(head)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let s = s.trim();
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("{s:?} is not a positive integer"));
    }
    s.parse::<u64>().map_err(|e| format!("{s:?}: {e}"))
}

/// A parsed method spec: zero or more decorators over a base method name.
///
/// Construct with [`MethodSpec::parse`] (or `str::parse`); resolve with
/// [`build_method`]. `Display` renders the canonical spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    /// Decorators, outermost first (the spec's left-to-right order).
    pub decorators: Vec<Decorator>,
    /// The base method name, verbatim ([`build_method`] folds case).
    pub base: String,
}

impl MethodSpec {
    /// Parses a spec string. Never panics: garbage input comes back as a
    /// typed [`ResolveError`].
    ///
    /// ```
    /// use ecfs::methods::spec::{Decorator, MethodSpec, ResolveError};
    ///
    /// let spec = MethodSpec::parse("stage(8MiB,2ms)+lru(64MiB)+PLR").unwrap();
    /// assert_eq!(spec.base, "PLR");
    /// assert_eq!(spec.decorators.len(), 2);
    /// assert_eq!(spec.to_string(), "stage(8MiB,2ms)+lru(64MiB)+PLR");
    ///
    /// assert_eq!(MethodSpec::parse("  "), Err(ResolveError::EmptySpec));
    /// assert!(matches!(
    ///     MethodSpec::parse("arc(1MiB)+FO"),
    ///     Err(ResolveError::BadDecorator { .. })
    /// ));
    /// ```
    pub fn parse(s: &str) -> Result<MethodSpec, ResolveError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ResolveError::EmptySpec);
        }
        let segments: Vec<&str> = s.split('+').map(str::trim).collect();
        let (base, deco_segs) = segments.split_last().expect("split yields >= 1");
        if segments.iter().any(|seg| seg.is_empty()) {
            return Err(ResolveError::EmptySpec);
        }
        if base.contains('(') || base.contains(')') {
            return Err(bad(base, "a spec must end with a bare method name"));
        }
        let mut decorators = Vec::with_capacity(deco_segs.len());
        let mut have_cache = false;
        let mut have_stage = false;
        for seg in deco_segs {
            let d = parse_decorator(seg)?;
            match d {
                Decorator::Cache { .. } => {
                    if have_cache {
                        return Err(bad(seg, "duplicate cache decorator"));
                    }
                    have_cache = true;
                }
                Decorator::Stage { .. } => {
                    if have_stage {
                        return Err(bad(seg, "duplicate stage decorator"));
                    }
                    have_stage = true;
                }
            }
            decorators.push(d);
        }
        Ok(MethodSpec {
            decorators,
            base: base.to_string(),
        })
    }
}

fn parse_decorator(seg: &str) -> Result<Decorator, ResolveError> {
    let open = seg
        .find('(')
        .ok_or_else(|| bad(seg, "decorators look like name(args)"))?;
    let name = seg[..open].trim();
    let rest = &seg[open + 1..];
    let args = rest
        .strip_suffix(')')
        .ok_or_else(|| bad(seg, "missing closing parenthesis"))?;
    if args.contains('(') || args.contains(')') {
        return Err(bad(seg, "nested parentheses"));
    }
    if name.eq_ignore_ascii_case("stage") {
        let parts: Vec<&str> = args.split(',').collect();
        let [size, age] = parts.as_slice() else {
            return Err(bad(seg, "stage takes exactly (SIZE, AGE)"));
        };
        let bytes = parse_bytes(size).map_err(|e| bad(seg, e))?;
        let age_ns = parse_duration(age).map_err(|e| bad(seg, e))?;
        if bytes < PAGE_BYTES {
            return Err(bad(seg, format!("stage size must be >= {PAGE_BYTES} B")));
        }
        if age_ns == 0 {
            return Err(bad(seg, "stage age must be positive"));
        }
        return Ok(Decorator::Stage { bytes, age_ns });
    }
    if !name.eq_ignore_ascii_case("lru") {
        return Err(bad(seg, "unknown decorator (expected stage or lru)"));
    }
    let bytes = parse_bytes(args).map_err(|e| bad(seg, e))?;
    if bytes < PAGE_BYTES {
        return Err(bad(seg, format!("cache size must be >= {PAGE_BYTES} B")));
    }
    Ok(Decorator::Cache { bytes })
}

/// Builds the driver `spec` names: the built-in whose name matches
/// `spec.base` ignoring ASCII case, wrapped once in [`Cached`] when the
/// spec carries decorators.
pub fn build_method(spec: &MethodSpec) -> Result<Arc<dyn UpdateMethod>, ResolveError> {
    let base = builtins()
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(&spec.base))
        .ok_or_else(|| ResolveError::UnknownMethod(spec.base.clone()))?;
    if spec.decorators.is_empty() {
        return Ok(base);
    }
    Ok(Arc::new(Cached::new(base, &spec.decorators)))
}

impl FromStr for MethodSpec {
    type Err = ResolveError;

    fn from_str(s: &str) -> Result<MethodSpec, ResolveError> {
        MethodSpec::parse(s)
    }
}

impl fmt::Display for MethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.decorators {
            write!(f, "{d}+")?;
        }
        f.write_str(&self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_name_round_trips() {
        let spec = MethodSpec::parse(" TSUE ").unwrap();
        assert!(spec.decorators.is_empty());
        assert_eq!(spec.base, "TSUE");
        assert_eq!(spec.to_string(), "TSUE");
    }

    /// A built-in's name is its driver's `name()`, in Fig. 5 order, and
    /// that name in any case builds it.
    #[test]
    fn builtins_resolve_by_any_case() {
        let names: Vec<String> = builtins().iter().map(|m| m.name().to_string()).collect();
        assert_eq!(names, ["FO", "FL", "PL", "PLR", "PARIX", "CoRD", "TSUE"]);
        for name in &names {
            for spelled in [name.clone(), name.to_lowercase(), name.to_uppercase()] {
                let m = build_method(&MethodSpec::parse(&spelled).unwrap()).unwrap();
                assert_eq!(m.name(), name);
            }
        }
    }

    #[test]
    fn build_composes_decorators_over_any_base() {
        for name in ["FO", "FL", "PL", "PLR", "PARIX", "CoRD", "TSUE"] {
            let spec = MethodSpec::parse(&format!("stage(8MiB,2ms)+lru(64MiB)+{name}")).unwrap();
            let m = build_method(&spec).unwrap();
            assert_eq!(m.name(), format!("stage(8MiB,2ms)+lru(64MiB)+{name}"));
            // The built name round-trips through the grammar.
            assert_eq!(MethodSpec::parse(m.name()).unwrap(), spec);
        }
    }

    #[test]
    fn build_returns_typed_errors() {
        let err = build_method(&MethodSpec::parse("warp-drive").unwrap()).unwrap_err();
        assert_eq!(err, ResolveError::UnknownMethod("warp-drive".to_string()));
        assert_eq!(
            err.to_string(),
            "unknown update method \"warp-drive\" \
             (expected one of FO, FL, PL, PLR, PARIX, CoRD, TSUE)"
        );
        let err = MethodSpec::parse("arc(64MiB)+FO").unwrap_err();
        assert!(matches!(err, ResolveError::BadDecorator { .. }));
    }

    #[test]
    fn decorated_spec_parses_and_canonicalises() {
        let spec = MethodSpec::parse("STAGE(8192KiB, 2000US) + Lru(64MiB) + fo").unwrap();
        assert_eq!(
            spec.decorators,
            vec![
                Decorator::Stage {
                    bytes: 8 << 20,
                    age_ns: 2_000_000
                },
                Decorator::Cache { bytes: 64 << 20 },
            ]
        );
        // Canonical rendering: largest exact units, no spaces.
        assert_eq!(spec.to_string(), "stage(8MiB,2ms)+lru(64MiB)+fo");
        assert_eq!(MethodSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn typed_errors() {
        assert_eq!(MethodSpec::parse(""), Err(ResolveError::EmptySpec));
        assert_eq!(MethodSpec::parse("FO+"), Err(ResolveError::EmptySpec));
        assert!(matches!(
            MethodSpec::parse("lru(64MiB)"),
            Err(ResolveError::BadDecorator { .. })
        ));
        assert!(matches!(
            MethodSpec::parse("lru(64MiB)+lru(1MiB)+FO"),
            Err(ResolveError::BadDecorator { .. })
        ));
        assert!(matches!(
            MethodSpec::parse("stage(8MiB)+FO"),
            Err(ResolveError::BadDecorator { .. })
        ));
        assert!(matches!(
            MethodSpec::parse("lru(64QiB)+FO"),
            Err(ResolveError::BadDecorator { .. })
        ));
        for below_a_page in ["lru(0B)+FO", "lru(100B)+FO"] {
            assert!(matches!(
                MethodSpec::parse(below_a_page),
                Err(ResolveError::BadDecorator { .. })
            ));
        }
        assert!(matches!(
            MethodSpec::parse("stage(8MiB,0ms)+FO"),
            Err(ResolveError::BadDecorator { .. })
        ));
        // LRU is the only cache policy.
        assert!(matches!(
            MethodSpec::parse("plru(16MiB)+FO"),
            Err(ResolveError::BadDecorator { .. })
        ));
        assert!(matches!(
            MethodSpec::parse("adaptive(16MiB)+FO"),
            Err(ResolveError::BadDecorator { .. })
        ));
    }

    #[test]
    fn unit_parsers() {
        assert_eq!(parse_bytes("4096B").unwrap(), 4096);
        assert_eq!(parse_bytes("16kib").unwrap(), 16 << 10);
        assert_eq!(parse_bytes("1GiB").unwrap(), 1 << 30);
        assert!(parse_bytes("1.5MiB").is_err());
        assert!(parse_bytes("12").is_err());
        assert!(parse_bytes("999999999999GiB").is_err());
        assert_eq!(parse_duration("250ns").unwrap(), 250);
        assert_eq!(parse_duration("2MS").unwrap(), 2_000_000);
        assert_eq!(parse_duration("3s").unwrap(), 3_000_000_000);
        assert!(parse_duration("5m").is_err());
    }

    #[test]
    fn canonical_units_are_largest_exact() {
        assert_eq!(FmtBytes(4096).to_string(), "4KiB");
        assert_eq!(FmtBytes((64 << 20) + 1).to_string(), "67108865B");
        assert_eq!(FmtBytes(1 << 30).to_string(), "1GiB");
        assert_eq!(FmtDur(1_500_000).to_string(), "1500us");
        assert_eq!(FmtDur(2_000_000).to_string(), "2ms");
        assert_eq!(FmtDur(0).to_string(), "0ns");
    }
}
