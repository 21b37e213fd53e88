//! Property tests for the method-spec grammar (proptest shim): structured
//! specs round-trip through `Display` → `parse` exactly, case/whitespace
//! noise in the decorator prefix parses to the same spec, and arbitrary
//! garbage never panics — it either parses (and then canonicalises
//! idempotently) or comes back as a typed [`ResolveError`].

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

/// Builds a structurally valid spec from raw draws. `shape` picks the
/// decorator combination (none, cache, stage, stage+cache, cache+stage —
/// the grammar admits either order).
fn build_spec(
    shape: u64,
    cache_bytes: u64,
    stage_bytes: u64,
    age_ns: u64,
    base_idx: u64,
) -> MethodSpec {
    let cache = Decorator::Cache { bytes: cache_bytes };
    let stage = Decorator::Stage {
        bytes: stage_bytes,
        age_ns,
    };
    let decorators = match shape % 5 {
        0 => vec![],
        1 => vec![cache],
        2 => vec![stage],
        3 => vec![stage, cache],
        _ => vec![cache, stage],
    };
    MethodSpec {
        decorators,
        base: BASES[base_idx as usize % BASES.len()].to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Display → parse is the identity on every structurally valid spec,
    /// for any decorator shape and in-range sizes/ages.
    #[test]
    fn structured_specs_round_trip(
        shape in 0u64..5,
        cache_bytes in PAGE_BYTES..(1u64 << 40),
        stage_bytes in PAGE_BYTES..(1u64 << 40),
        age_ns in 1u64..(1u64 << 40),
        base_idx in 0u64..8,
    ) {
        let spec = build_spec(shape, cache_bytes, stage_bytes, age_ns, base_idx);
        let rendered = spec.to_string();
        let parsed = MethodSpec::parse(&rendered).expect("canonical rendering must parse");
        prop_assert_eq!(&parsed, &spec, "{} did not round-trip", rendered);
        // Canonicalisation is idempotent: one more lap changes nothing.
        prop_assert_eq!(parsed.to_string(), rendered);
    }

    /// The decorator prefix is case-insensitive and whitespace-tolerant:
    /// flipping letter case and padding around separators parses to the
    /// same spec (the base segment stays verbatim by contract).
    #[test]
    fn decorator_prefix_tolerates_case_and_spaces(
        shape in 1u64..5,
        cache_bytes in PAGE_BYTES..(1u64 << 30),
        stage_bytes in PAGE_BYTES..(1u64 << 30),
        age_ns in 1u64..(1u64 << 30),
        base_idx in 0u64..8,
        flips in proptest::collection::vec(any::<bool>(), 64),
        pad in 0usize..3,
    ) {
        let spec = build_spec(shape, cache_bytes, stage_bytes, age_ns, base_idx);
        let rendered = spec.to_string();
        let split = rendered.rfind('+').expect("shape >= 1 has a decorator") + 1;
        let (prefix, base) = rendered.split_at(split);
        let mut noisy = String::new();
        for (i, c) in prefix.chars().enumerate() {
            if c == '+' || c == ',' {
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
