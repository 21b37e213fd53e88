//! Property tests for the method-spec grammar (proptest shim): structured
//! specs (bare or behind `lru(SIZE)`) round-trip through `Display` →
//! `parse` exactly, case/whitespace noise in the decorator prefix parses
//! to the same spec, and arbitrary garbage never panics — it either
//! parses (and then canonicalises idempotently) or comes back as a typed
//! [`ResolveError`].

use ecfs::cache::PAGE_BYTES;
use ecfs::prelude::*;
use proptest::prelude::*;

const BASES: [&str; 8] = [
    "TSUE",
    "FO",
    "fl",
    "PL",
    "PLR",
    "parix",
    "CoRD",
    "my_method-9",
];

/// Builds a structurally valid spec from raw draws: bare when `cached` is
/// false, else behind `lru(cache_bytes)`.
fn build_spec(cached: bool, cache_bytes: u64, base_idx: u64) -> MethodSpec {
    MethodSpec {
        lru: cached.then_some(cache_bytes),
        base: BASES[base_idx as usize % BASES.len()].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Display → parse is the identity on every structurally valid spec,
    /// bare or cached, for any in-range cache size.
    #[test]
    fn structured_specs_round_trip(
        cached in any::<bool>(),
        cache_bytes in PAGE_BYTES..(1u64 << 40),
        base_idx in 0u64..8,
    ) {
        let spec = build_spec(cached, cache_bytes, base_idx);
        let rendered = spec.to_string();
        let parsed = MethodSpec::parse(&rendered).expect("canonical rendering must parse");
        prop_assert_eq!(&parsed, &spec, "{} did not round-trip", rendered);
        // Canonicalisation is idempotent: one more lap changes nothing.
        prop_assert_eq!(parsed.to_string(), rendered);
    }

    /// The decorator prefix is case-insensitive and whitespace-tolerant:
    /// flipping letter case and padding around the separator parses to
    /// the same spec (the base segment stays verbatim by contract).
    #[test]
    fn decorator_prefix_tolerates_case_and_spaces(
        cache_bytes in PAGE_BYTES..(1u64 << 30),
        base_idx in 0u64..8,
        flips in proptest::collection::vec(any::<bool>(), 64),
        pad in 0usize..3,
    ) {
        let spec = build_spec(true, cache_bytes, base_idx);
        let rendered = spec.to_string();
        let split = rendered.rfind('+').expect("a cached spec has a decorator") + 1;
        let (prefix, base) = rendered.split_at(split);
        let mut noisy = String::new();
        for (i, c) in prefix.chars().enumerate() {
            if c == '+' {
                noisy.extend(std::iter::repeat_n(' ', pad));
                noisy.push(c);
                noisy.extend(std::iter::repeat_n(' ', pad));
            } else if flips[i % flips.len()] {
                noisy.extend(c.to_uppercase());
            } else {
                noisy.extend(c.to_lowercase());
            }
        }
        noisy.push_str(base);
        let parsed = MethodSpec::parse(&noisy)
            .unwrap_or_else(|e| panic!("{noisy:?} must parse: {e}"));
        prop_assert_eq!(parsed, spec, "{:?} parsed differently", noisy);
    }

    /// Garbage in, typed error (or valid spec) out — never a panic. When
    /// garbage happens to parse, its canonical form must re-parse to the
    /// same spec (no strings that parse once but not twice).
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..40)) {
        let s = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(spec) = MethodSpec::parse(&s) {
            let rendered = spec.to_string();
            let reparsed = MethodSpec::parse(&rendered)
                .unwrap_or_else(|e| panic!("{rendered:?} (from {s:?}) must re-parse: {e}"));
            prop_assert_eq!(reparsed, spec);
        }
    }

    /// ASCII-flavoured garbage biased toward the grammar's alphabet —
    /// digits, units, parens, separators — probes parser edges more often
    /// than uniform bytes do, and must be equally panic-free.
    #[test]
    fn grammar_flavoured_garbage_never_panics(
        picks in proptest::collection::vec(0u8..20, 0..24),
    ) {
        const ATOMS: [&str; 20] = [
            "lru", "plru", "adaptive", "stage", "(", ")", "+", ",", " ",
            "MiB", "KiB", "GiB", "B", "ms", "us", "ns", "s", "0", "7", "TSUE",
        ];
        let s: String = picks.iter().map(|p| ATOMS[*p as usize]).collect();
        if let Ok(spec) = MethodSpec::parse(&s) {
            let rendered = spec.to_string();
            prop_assert_eq!(
                MethodSpec::parse(&rendered).expect("canonical form re-parses"),
                spec
            );
        }
    }
}
