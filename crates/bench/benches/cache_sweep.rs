//! Cache sweep: the node-local cache & write-staging decorator measured
//! over every update method via the method-spec grammar.
//!
//! Each method replays the Ali-Cloud mix bare and under `lru(S)+<method>`
//! for a ramp of cache sizes, plus one policy-comparison cell per
//! replacement policy and one `stage(8MiB,2ms)+lru(16MiB)+<method>` cell
//! that exercises write coalescing. The table reports the spec string the
//! cell was built from (every one must round-trip through
//! `MethodSpec::parse`, which the sweep asserts per row), the hit ratio,
//! update IOPS, and coalesced bytes.
//!
//! Expected shape: hit ratio grows monotonically with cache size for every
//! method (the workload's Zipf hot set fits progressively better); caching
//! never hurts a closed-loop replay, so `lru(64MiB)+FO` rides at least
//! bare FO's IOPS; and TSUE's *relative* gain is the smallest of all
//! methods — its two-stage log front end already keeps the update path
//! off the read-modify-write critical path, so a read cache has the least
//! left to absorb (the same asymmetry PAPER.md §5 reports for absolute
//! latency).

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::{kfmt, print_table, run_grid, ssd_replay, BenchReport};

/// The swept LRU capacities: 64 KiB misses most of the hot set at this
/// scale, 64 MiB holds effectively all of it.
const CACHE_SIZES: [&str; 3] = ["64KiB", "1MiB", "64MiB"];

/// Every built-in method; the smoke scale keeps FO, PLR and TSUE.
fn methods() -> Vec<Arc<dyn UpdateMethod>> {
    builtins()
        .into_iter()
        .filter(|m| !tsue_bench::smoke() || matches!(m.name(), "FO" | "PLR" | "TSUE"))
        .collect()
}

/// One replay cell: the standard SSD testbed running the method `spec`
/// builds.
fn cell(spec: &str) -> ReplayConfig {
    let clients = if tsue_bench::smoke() { 6 } else { 8 };
    let parsed = MethodSpec::parse(spec).expect("sweep specs are well-formed");
    let method = build_method(&parsed).expect("sweep specs resolve");
    let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
    r.volume_bytes = 32 << 20;
    r
}

fn main() {
    let methods = methods();

    // The grid, labelled by (method, spec, swept-size-if-lru).
    let mut grid = Vec::new();
    let mut labels: Vec<(&str, String, Option<&str>)> = Vec::new();
    for method in methods.iter().map(|m| m.name()) {
        let mut push = |spec: String, size: Option<&'static str>| {
            grid.push(cell(&spec));
            labels.push((method, spec, size));
        };
        push(method.to_string(), None);
        for size in CACHE_SIZES {
            push(format!("lru({size})+{method}"), Some(size));
        }
        push(format!("stage(8MiB,2ms)+lru(16MiB)+{method}"), None);
    }
    // Policy comparison on TSUE at the middle size (LRU's 16 MiB cell
    // above is the third point).
    for policy in ["plru", "adaptive"] {
        let spec = format!("{policy}(16MiB)+TSUE");
        grid.push(cell(&spec));
        labels.push(("TSUE", spec, None));
    }
    let results = run_grid(&grid);

    let mut report = BenchReport::new("cache_sweep");
    let mut rows = Vec::new();
    for ((method, spec, _), res) in labels.iter().zip(&results) {
        assert_eq!(
            res.oracle_violations, 0,
            "{spec}: cache/staging layer violated consistency"
        );
        assert_eq!(res.method, *spec, "{spec}: method name drifted");
        let parsed = MethodSpec::parse(spec).expect("row spec parses");
        assert_eq!(parsed.to_string(), *spec, "{spec}: not canonical");
        let decorated = !parsed.decorators.is_empty();
        if decorated {
            assert!(res.cache_lookups > 0, "{spec}: cache never consulted");
        } else {
            assert_eq!(res.cache_lookups, 0, "{spec}: bare cell probed a cache");
            assert_eq!(res.staged_bytes, 0, "{spec}: bare cell staged writes");
        }
        if spec.starts_with("stage(") {
            assert!(res.staged_bytes > 0, "{spec}: staging bypassed");
            assert!(res.stage_flushes > 0, "{spec}: staging never flushed");
        }
        let cells = vec![
            ("method", (*method).into()),
            ("spec", spec.as_str().into()),
            ("update_iops", res.update_iops.into()),
            ("cache_lookups", res.cache_lookups.into()),
            ("cache_hits", res.cache_hits.into()),
            ("cache_hit_ratio", res.cache_hit_ratio.into()),
            ("staged_bytes", res.staged_bytes.into()),
            ("coalesced_bytes", res.coalesced_bytes.into()),
            ("stage_flushes", res.stage_flushes.into()),
        ];
        report.add_row(res, cells);
        rows.push(vec![
            spec.clone(),
            kfmt(res.update_iops),
            format!("{:.3}", res.cache_hit_ratio),
            format!("{}", res.cache_hits),
            format!("{:.2}", res.staged_bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", res.coalesced_bytes as f64 / (1 << 20) as f64),
            format!("{}", res.stage_flushes),
        ]);
    }
    print_table(
        "Cache sweep: RS(6,3) Ali-Cloud, node-local cache & write staging over every method",
        &[
            "spec",
            "IOPS",
            "hit ratio",
            "hits",
            "staged MiB",
            "coalesced MiB",
            "flushes",
        ],
        &rows,
    );

    // Per-method findings and their shape: the hit-ratio ramp, the
    // relative IOPS gain from the largest cache, and staging's coalesced
    // fraction.
    let lookup = |m: &str, want: &dyn Fn(&str, Option<&str>) -> bool| -> &RunResult {
        labels
            .iter()
            .zip(&results)
            .find(|((lm, spec, size), _)| *lm == m && want(spec, *size))
            .map(|(_, res)| res)
            .expect("grid covers every (method, variant)")
    };
    println!();
    let mut gains = Vec::new();
    for method in methods.iter().map(|m| m.name()) {
        let bare = lookup(method, &|spec, _| spec == method);
        let mut ramp = Vec::new();
        for swept in CACHE_SIZES {
            let res = lookup(method, &|_, size| size == Some(swept));
            report.add_finding(&format!("hit_ratio_{method}_{swept}"), res.cache_hit_ratio);
            ramp.push(res.cache_hit_ratio);
        }
        let best = lookup(method, &|_, size| size == Some("64MiB"));
        let gain = best.update_iops / bare.update_iops;
        report.add_finding(&format!("cache_gain_{method}"), gain);
        let staged = lookup(method, &|spec, _| spec.starts_with("stage("));
        let coalesced_frac = staged.coalesced_bytes as f64 / staged.staged_bytes.max(1) as f64;
        report.add_finding(&format!("coalesced_frac_{method}"), coalesced_frac);
        println!(
            "  -> {:>5}: hit ratio {:.3} -> {:.3} -> {:.3} across {:?}, \
             64 MiB cache gain {:.3}x, staging coalesces {:.1}% of staged bytes",
            method,
            ramp[0],
            ramp[1],
            ramp[2],
            CACHE_SIZES,
            gain,
            100.0 * coalesced_frac,
        );
        assert!(
            ramp.iter().all(|r| (0.0..=1.0).contains(r)),
            "{method}: hit ratio outside [0, 1] ({ramp:?})"
        );
        for pair in ramp.windows(2) {
            assert!(
                pair[1] >= pair[0] - 0.01,
                "{method}: hit ratio not monotone in cache size ({ramp:?})"
            );
        }
        assert!(
            coalesced_frac > 0.0 && coalesced_frac < 1.0,
            "{method}: staging coalesced {coalesced_frac:.3} of staged bytes, not a fraction in (0, 1)"
        );
        gains.push((method, gain));
    }
    let gain_of = |m: &str| gains.iter().find(|(k, _)| *k == m).unwrap().1;
    assert!(
        gain_of("FO") >= 1.0,
        "a read cache must not slow FO down ({:.3}x)",
        gain_of("FO")
    );
    for &(method, gain) in &gains {
        assert!(
            gain_of("TSUE") <= gain + 0.02,
            "TSUE's cache gain ({:.3}x) must be the smallest, but {method} gains {gain:.3}x",
            gain_of("TSUE"),
        );
    }

    report.write_and_announce();
}
