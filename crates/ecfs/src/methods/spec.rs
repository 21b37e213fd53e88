//! The parsed method-spec grammar: how experiments name an update method,
//! optionally behind the node-local LRU read cache.
//!
//! A spec is `[lru(SIZE)+]NAME`: an optional cache decorator, then the
//! name of one of the seven built-in methods ([`super::builtins`]), in any
//! case:
//!
//! ```text
//! TSUE             # a bare driver
//! lru(64MiB)+FO    # a 64 MiB LRU read cache per node over FO
//! ```
//!
//! `lru(SIZE)` arms a node-local LRU read cache of `SIZE` bytes per node
//! ([`crate::cache::PageCache`]). `SIZE` is an integer with a binary unit
//! (`B`, `KiB`, `MiB`, `GiB`) of at least one 4 KiB page. Parsing is
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

/// Why a method spec failed to parse or resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The spec (or one of its `+`-separated segments) is empty.
    EmptySpec,
    /// The base name is not one of the built-ins.
    UnknownMethod(String),
    /// A decorator segment is not one `lru(SIZE)` with a valid size.
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

/// A parsed method spec: an optional read cache over a base method name.
///
/// Construct with [`MethodSpec::parse`] (or `str::parse`); resolve with
/// [`build_method`]. `Display` renders the canonical spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSpec {
    /// `lru(SIZE)`: the per-node LRU read-cache capacity in bytes, if armed.
    pub lru: Option<u64>,
    /// The base method name, verbatim ([`build_method`] folds case).
    pub base: String,
}

impl MethodSpec {
    /// Parses a spec string. Never panics: garbage input comes back as a
    /// typed [`ResolveError`].
    ///
    /// ```
    /// use ecfs::methods::spec::{MethodSpec, ResolveError};
    ///
    /// let spec = MethodSpec::parse("LRU(65536KiB)+PLR").unwrap();
    /// assert_eq!(spec.base, "PLR");
    /// assert_eq!(spec.lru, Some(64 << 20));
    /// assert_eq!(spec.to_string(), "lru(64MiB)+PLR");
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
        let mut lru = None;
        for seg in deco_segs {
            if lru.replace(parse_lru(seg)?).is_some() {
                return Err(bad(seg, "duplicate lru decorator"));
            }
        }
        Ok(MethodSpec {
            lru,
            base: base.to_string(),
        })
    }
}

/// Parses one `lru(SIZE)` segment into its capacity in bytes.
fn parse_lru(seg: &str) -> Result<u64, ResolveError> {
    let open = seg
        .find('(')
        .ok_or_else(|| bad(seg, "decorators look like name(args)"))?;
    if !seg[..open].trim().eq_ignore_ascii_case("lru") {
        return Err(bad(seg, "unknown decorator (expected lru)"));
    }
    let args = seg[open + 1..]
        .strip_suffix(')')
        .ok_or_else(|| bad(seg, "missing closing parenthesis"))?;
    let bytes = parse_bytes(args).map_err(|e| bad(seg, e))?;
    if bytes < PAGE_BYTES {
        return Err(bad(seg, format!("cache size must be >= {PAGE_BYTES} B")));
    }
    Ok(bytes)
}

/// Builds the driver `spec` names: the built-in whose name matches
/// `spec.base` ignoring ASCII case, wrapped once in [`Cached`] when the
/// spec arms a read cache.
pub fn build_method(spec: &MethodSpec) -> Result<Arc<dyn UpdateMethod>, ResolveError> {
    let base = builtins()
        .into_iter()
        .find(|m| m.name().eq_ignore_ascii_case(&spec.base))
        .ok_or_else(|| ResolveError::UnknownMethod(spec.base.clone()))?;
    Ok(match spec.lru {
        None => base,
        Some(bytes) => Arc::new(Cached::new(base, bytes)),
    })
}

impl FromStr for MethodSpec {
    type Err = ResolveError;

    fn from_str(s: &str) -> Result<MethodSpec, ResolveError> {
        MethodSpec::parse(s)
    }
}

impl fmt::Display for MethodSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(bytes) = self.lru {
            write!(f, "lru({})+", FmtBytes(bytes))?;
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
        assert_eq!(spec.lru, None);
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
            let spec = MethodSpec::parse(&format!("lru(64MiB)+{name}")).unwrap();
            let m = build_method(&spec).unwrap();
            assert_eq!(m.name(), format!("lru(64MiB)+{name}"));
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
        let spec = MethodSpec::parse(" Lru(65536KiB) + fo").unwrap();
        assert_eq!(spec.lru, Some(64 << 20));
        // Canonical rendering: largest exact unit, no spaces.
        assert_eq!(spec.to_string(), "lru(64MiB)+fo");
        assert_eq!(MethodSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    /// The grammar is `[lru(SIZE)+]NAME`: write staging and a second cache
    /// are not decorators.
    #[test]
    fn only_one_lru_decorates() {
        for spec in [
            "stage(8MiB,2ms)+FO",
            "lru(1MiB)+lru(2MiB)+FO",
            "stage(8MiB,2ms)+lru(64MiB)+PLR",
        ] {
            assert!(
                matches!(
                    MethodSpec::parse(spec),
                    Err(ResolveError::BadDecorator { .. })
                ),
                "{spec}"
            );
        }
    }

    #[test]
    fn typed_errors() {
        assert_eq!(MethodSpec::parse(""), Err(ResolveError::EmptySpec));
        assert_eq!(MethodSpec::parse("FO+"), Err(ResolveError::EmptySpec));
        for bad_spec in [
            "lru(64MiB)",
            "lru(64QiB)+FO",
            "lru(64MiB+FO",
            "lru(lru(1MiB))+FO",
            "lru(0B)+FO",
            "lru(100B)+FO",
            // LRU is the only cache policy.
            "plru(16MiB)+FO",
            "adaptive(16MiB)+FO",
        ] {
            assert!(
                matches!(
                    MethodSpec::parse(bad_spec),
                    Err(ResolveError::BadDecorator { .. })
                ),
                "{bad_spec}"
            );
        }
    }

    #[test]
    fn unit_parsers() {
        assert_eq!(parse_bytes("4096B").unwrap(), 4096);
        assert_eq!(parse_bytes("16kib").unwrap(), 16 << 10);
        assert_eq!(parse_bytes("1GiB").unwrap(), 1 << 30);
        assert!(parse_bytes("1.5MiB").is_err());
        assert!(parse_bytes("12").is_err());
        assert!(parse_bytes("999999999999GiB").is_err());
    }

    #[test]
    fn canonical_units_are_largest_exact() {
        assert_eq!(FmtBytes(4096).to_string(), "4KiB");
        assert_eq!(FmtBytes((64 << 20) + 1).to_string(), "67108865B");
        assert_eq!(FmtBytes(1 << 30).to_string(), "1GiB");
    }
}
