//! Cache sweep: the node-local LRU read cache
//! (`ClusterConfig::read_cache_bytes`) measured under every update method.
//!
//! Each method replays the Ali-Cloud mix bare and behind a cache for a
//! ramp of sizes. The table labels a cell `lru(S)+<method>` (bare cells
//! by the method's name), then reports the hit ratio, update IOPS and the
//! exact mean read latency.
//!
//! Expected shape: hit ratio grows monotonically with cache size for every
//! method (the workload's Zipf hot set fits progressively better); caching
//! never hurts a closed-loop replay, so `lru(64MiB)+FO` rides at least
//! bare FO's IOPS; and TSUE's *relative* IOPS gain is the smallest of all
//! methods — its two-stage log front end already keeps the update path
//! off the read-modify-write critical path, so a read cache has the least
//! left to absorb (the same asymmetry PAPER.md §5 reports for absolute
//! latency).
//!
//! The read gain is what keeps the cache in the tree: `lru(64MiB)` lowers
//! the mean read latency of FO, PL, PLR, PARIX and CoRD by at least 10 %
//! at the default scale, while FL and TSUE gain the least, since both
//! already serve hot reads from their own log read cache. At smoke scale
//! (≈ 110 reads a cell) only the direction is asserted, for FO and PLR.

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, kilo, plain, Results, Sweep};
use tsue_bench::{ssd_replay, BenchReport};

/// The swept LRU capacities, labelled as the table spells them: 64 KiB
/// misses most of the hot set at this scale, 64 MiB holds effectively
/// all of it.
const CACHE_SIZES: [(&str, u64); 3] = [("64KiB", 64 << 10), ("1MiB", 1 << 20), ("64MiB", 64 << 20)];

/// Every method; the smoke scale keeps FO, PLR and TSUE.
fn methods() -> Vec<Method> {
    Method::ALL
        .into_iter()
        .filter(|m| !tsue_bench::smoke() || matches!(m, Method::Fo | Method::Plr | Method::Tsue))
        .collect()
}

/// One replay cell: the standard SSD testbed running `method`, behind a
/// read cache of `cache_bytes` per node if set.
fn cell(method: Method, cache_bytes: Option<u64>) -> ReplayConfig {
    let clients = if tsue_bench::smoke() { 6 } else { 8 };
    let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
    r.cluster.read_cache_bytes = cache_bytes;
    r.volume_bytes = 32 << 20;
    r
}

/// A cell: method, spec, the swept LRU size if the cell is on the ramp.
type Label = (String, String, Option<&'static str>);
type Column = tsue_bench::sweep::Column<Label>;

pub fn sweep() -> Sweep<Label> {
    let mut cells = Vec::new();
    for method in methods() {
        let name = method.name().to_string();
        cells.push(((name.clone(), name.clone(), None), cell(method, None)));
        for (size, bytes) in CACHE_SIZES {
            let label = (name.clone(), format!("lru({size})+{name}"), Some(size));
            cells.push((label, cell(method, Some(bytes))));
        }
    }
    let title = "Cache sweep: RS(6,3) Ali-Cloud, node-local LRU read cache over every method";
    Sweep::new("cache", title, cells, check).columns([
        Column::key("method", |r| r.label.0.clone()),
        Column::key("spec", |r| r.label.1.clone()).show("spec", plain),
        Column::key("update_iops", |r| r.res.update_iops).show("IOPS", kilo),
        Column::key("cache_lookups", |r| r.res.cache_lookups),
        Column::key("cache_hits", |r| r.res.cache_hits).show("hits", plain),
        Column::key("cache_hit_ratio", |r| r.res.cache_hit_ratio).show("hit ratio", fixed::<3>),
        Column::key("read_mean_us", |r| r.res.read_mean_us).show("read mean us", fixed::<1>),
    ])
}

fn check(results: &Results<Label>, report: &mut BenchReport) {
    for ((method, spec, size), res) in results.iter() {
        assert_eq!(res.method, *method, "{spec}: method name drifted");
        if size.is_some() {
            assert!(res.cache_lookups > 0, "{spec}: cache never consulted");
        } else {
            assert_eq!(res.cache_lookups, 0, "{spec}: bare cell probed a cache");
        }
    }

    // Per-method findings and their shape: the hit-ratio ramp, and the
    // relative IOPS and read-mean gains from the largest cache.
    let lookup = |m: &str, want: &dyn Fn(&str, Option<&str>) -> bool| -> &RunResult {
        results.get(|(lm, spec, size)| lm == m && want(spec, *size))
    };
    println!();
    let methods = methods();
    let mut gains = Vec::new();
    let mut read_gains = Vec::new();
    for method in methods.iter().map(|m| m.name()) {
        let bare = lookup(method, &|spec, _| spec == method);
        let mut ramp = Vec::new();
        for (swept, _) in CACHE_SIZES {
            let res = lookup(method, &|_, size| size == Some(swept));
            report.add_finding(&format!("hit_ratio_{method}_{swept}"), res.cache_hit_ratio);
            ramp.push(res.cache_hit_ratio);
        }
        let best = lookup(method, &|_, size| size == Some("64MiB"));
        let gain = best.update_iops / bare.update_iops;
        report.add_finding(&format!("cache_gain_{method}"), gain);
        let read_gain = bare.read_mean_us / best.read_mean_us;
        report.add_finding(&format!("read_gain_{method}"), read_gain);
        println!(
            "  -> {:>5}: hit ratio {:.3} -> {:.3} -> {:.3} across {:?}, \
             64 MiB cache gain {:.3}x, read mean {:.1} -> {:.1} us ({:+.1}%)",
            method,
            ramp[0],
            ramp[1],
            ramp[2],
            CACHE_SIZES.map(|(size, _)| size),
            gain,
            bare.read_mean_us,
            best.read_mean_us,
            100.0 * (best.read_mean_us / bare.read_mean_us - 1.0),
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
        gains.push((method, gain));
        read_gains.push((method, bare.read_mean_us, best.read_mean_us));
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

    check_read_gains(&read_gains);
}

/// The read-mean gate on `lru(64MiB)`, over `(method, bare read mean,
/// cached read mean)` rows.
fn check_read_gains(rows: &[(&str, f64, f64)]) {
    let means = |m: &str| {
        let &(_, bare, cached) = rows.iter().find(|(k, ..)| *k == m).unwrap();
        (bare, cached)
    };
    if tsue_bench::smoke() {
        // Too few reads a cell for a 10 % gate: the direction only.
        for method in ["FO", "PLR"] {
            let (bare, cached) = means(method);
            assert!(
                cached < bare,
                "{method}: lru(64MiB) read mean {cached:.1} us is not below bare {bare:.1} us"
            );
        }
        return;
    }
    for method in ["FO", "PL", "PLR", "PARIX", "CoRD"] {
        let (bare, cached) = means(method);
        assert!(
            cached <= 0.9 * bare,
            "{method}: lru(64MiB) must lower the read mean by >= 10 % \
             ({bare:.1} -> {cached:.1} us)"
        );
    }
    let gain = |m: &str| {
        let (bare, cached) = means(m);
        bare / cached
    };
    for own_cache in ["FL", "TSUE"] {
        for &(method, ..) in rows {
            if matches!(method, "FL" | "TSUE") {
                continue;
            }
            assert!(
                gain(own_cache) < gain(method),
                "{own_cache}'s read gain ({:.3}x) must be below {method}'s ({:.3}x)",
                gain(own_cache),
                gain(method),
            );
        }
    }
}
