//! Shared plumbing for the benchmark harness.
//!
//! The `report` bench target regenerates the paper's evaluation (§5):
//! Figs. 5, 6b, 7 and 8a, Tables 1 and 2, and eight sweeps beyond the
//! paper. Each is a [`sweep::Sweep`] value — cells, columns declared once,
//! and a check asserting its findings — that runs deterministic
//! simulations and prints the same rows/series the paper reports, so
//! `cargo bench -p tsue-bench --bench report` reproduces the entire
//! evaluation and `... -- load fig5` runs the named values only.
//!
//! Scale knobs: all 14 values' default grids finish in about 9 s after
//! the build (median of 5 runs through `cargo bench` on a 2-CPU VM); set
//! `TSUE_BENCH_FULL=1` for the paper-scale grid (more clients, more ops).

use ecfs::prelude::*;

pub mod report;
pub mod sweep;

pub use report::{report_dir, BenchReport, Json};

/// Whether the full-scale grid was requested.
pub fn full_scale() -> bool {
    std::env::var("TSUE_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Whether the CI smoke scale was requested (`TSUE_BENCH_SMOKE=1`): bench
/// targets shrink their grids to finish in seconds while still exercising
/// every code path.
pub fn smoke() -> bool {
    std::env::var("TSUE_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Operations per client for the current scale.
pub fn ops_per_client() -> usize {
    if smoke() {
        100
    } else if full_scale() {
        2_000
    } else {
        500
    }
}

/// Worker threads for [`run_grid`] and the sweep harness: the
/// `TSUE_BENCH_THREADS` override when set (an unparseable value means 1),
/// otherwise the machine's available parallelism.
fn grid_threads() -> usize {
    match std::env::var("TSUE_BENCH_THREADS") {
        Ok(v) => v.trim().parse().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Runs a grid of independent replays in parallel across OS threads and
/// returns the results in input order.
///
/// Each `Sim`/`Cluster` pair is self-contained and every replay is
/// deterministic, so fanning the grid out across worker threads changes
/// wall-clock time only — the `RunResult`s are identical to a serial
/// loop. The worker count is the `TSUE_BENCH_THREADS` environment
/// override when set, otherwise `std::thread::available_parallelism()`.
pub fn run_grid(configs: &[ReplayConfig]) -> Vec<RunResult> {
    fan_out(configs, |rcfg| Replay::run(rcfg).result)
}

/// Maps `run` over `items` on [`grid_threads`] workers, each claiming the
/// next unclaimed item, and returns the outputs in input order.
pub(crate) fn fan_out<C: Sync, T: Send>(items: &[C], run: impl Fn(&C) -> T + Sync) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    if items.is_empty() {
        return Vec::new();
    }
    let workers = grid_threads().min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let out = run(item);
                *slots[i].lock().expect("no worker panics while storing") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            let out = slot.into_inner().expect("no worker panics while storing");
            out.expect("worker completed every claimed slot")
        })
        .collect()
}

/// The six methods of Fig. 5 (every built-in but FL), in the paper's order.
pub fn fig5_methods() -> [Arc<dyn UpdateMethod>; 6] {
    [
        Arc::new(Fo),
        Arc::new(Pl),
        Arc::new(Plr),
        Arc::new(Parix),
        Arc::new(Cord),
        Arc::new(Tsue),
    ]
}

/// The six RS codes of Fig. 5.
pub fn fig5_codes() -> Vec<(usize, usize)> {
    vec![(6, 2), (12, 2), (6, 3), (12, 3), (6, 4), (12, 4)]
}

/// Builds the standard SSD replay configuration.
pub fn ssd_replay(
    k: usize,
    m: usize,
    method: Arc<dyn UpdateMethod>,
    family: TraceFamily,
    clients: u64,
) -> ReplayConfig {
    let code = CodeParams::new(k, m).expect("valid code");
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = clients;
    let mut r = ReplayConfig::new(cluster, family);
    r.ops_per_client = ops_per_client();
    r.volume_bytes = 128 << 20;
    r
}

/// Builds the standard HDD replay configuration (§5.4).
pub fn hdd_replay(
    k: usize,
    m: usize,
    method: Arc<dyn UpdateMethod>,
    family: TraceFamily,
    clients: u64,
) -> ReplayConfig {
    let code = CodeParams::new(k, m).expect("valid code");
    let mut cluster = ClusterConfig::hdd_testbed(code, method);
    cluster.clients = clients;
    let mut r = ReplayConfig::new(cluster, family);
    // HDDs are ~30x slower per random op: fewer ops keep runs short, and
    // smaller log units keep TSUE's real-time recycling active within the
    // shortened run (the paper's 16 MiB units assume minute-long runs).
    r.cluster.tsue_unit_bytes = 1 << 20;
    r.ops_per_client = ops_per_client() / 4;
    r.volume_bytes = 128 << 20;
    r
}

/// Saturation-knee index with hysteresis over a rate-ordered sweep.
///
/// A single saturated rung surrounded by unsaturated ones is treated as
/// noise (a queue-depth spike from one unlucky arrival burst, not a
/// capacity cliff): the knee is the first saturated rung whose *successor*
/// is also saturated. A saturated final rung qualifies on its own — there
/// is no successor left to confirm it, and sweeps are expected to end past
/// the knee.
///
/// Returns `None` when the sweep never (durably) saturates.
pub fn knee_index(saturated: &[bool]) -> Option<usize> {
    (0..saturated.len()).find(|&i| saturated[i] && saturated.get(i + 1).copied().unwrap_or(true))
}

/// The knee of a rate ladder (`(rate, result)` rungs in rising rate
/// order): the first rung past capacity that the next rung confirms
/// ([`knee_index`]).
///
/// # Panics
/// Panics, naming `what`, when the bottom rung is already past capacity
/// (`past`) or no rung is: the ladder does not bracket the knee.
pub fn ladder_knee<'a>(
    what: &str,
    ladder: &[(f64, &'a RunResult)],
    past: impl Fn(f64, &RunResult) -> bool,
) -> (f64, &'a RunResult) {
    let saturated: Vec<bool> = ladder.iter().map(|&(rate, res)| past(rate, res)).collect();
    // Below the knee the method must actually ride the schedule.
    assert!(!saturated[0], "{what} saturated at the bottom rung");
    let knee = knee_index(&saturated);
    ladder[knee.unwrap_or_else(|| panic!("{what} never saturated: raise the top rung"))]
}

/// Renders a markdown-ish table.
pub fn print_table(title: &str, headers: &[impl AsRef<str>], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let headers: Vec<String> = headers.iter().map(|h| h.as_ref().to_string()).collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, &w)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers);
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(w + 2)).collect();
    println!("|{}|", rule.join("|"));
    for row in rows {
        line(row);
    }
}

/// Formats IOPS with thousands separators elided (k-units).
pub fn kfmt(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.1}k", v / 1000.0)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_definitions() {
        assert_eq!(fig5_codes().len(), 6);
        assert_eq!(fig5_methods().len(), 6);
        assert!(ops_per_client() > 0);
    }

    #[test]
    fn replay_builders_validate() {
        let r = ssd_replay(6, 4, Arc::new(Tsue), TraceFamily::AliCloud, 8);
        assert!(r.cluster.validate().is_ok());
        let h = hdd_replay(6, 4, Arc::new(Pl), TraceFamily::TenCloud, 8);
        assert!(h.cluster.validate().is_ok());
        assert!(matches!(
            h.cluster.fleet,
            ecfs::DiskFleet::Uniform(ecfs::DiskKind::Hdd(_))
        ));
    }

    #[test]
    fn kfmt_formats() {
        assert_eq!(kfmt(950.0), "950");
        assert_eq!(kfmt(25_400.0), "25.4k");
    }

    #[test]
    fn knee_hysteresis() {
        // Never saturates.
        assert_eq!(knee_index(&[false, false, false]), None);
        assert_eq!(knee_index(&[]), None);
        // Clean knee: saturated from rung 2 on.
        assert_eq!(knee_index(&[false, false, true, true]), Some(2));
        // An isolated blip is skipped; the durable knee comes later.
        assert_eq!(knee_index(&[false, true, false, true, true]), Some(3));
        // A saturated last rung counts alone (nothing left to confirm it).
        assert_eq!(knee_index(&[false, false, true]), Some(2));
        assert_eq!(knee_index(&[false, true, false, true]), Some(3));
        assert_eq!(knee_index(&[true]), Some(0));
        // A lone mid-sweep blip with no durable knee after it is noise.
        assert_eq!(knee_index(&[false, true, false, false]), None);
    }

    #[test]
    fn run_grid_matches_serial_replay() {
        // Parallel fan-out must be a pure wall-clock optimisation: results
        // arrive in input order and match a serial run field for field.
        let mut configs = Vec::new();
        for method in [
            Arc::new(Fo) as Arc<dyn UpdateMethod>,
            Arc::new(Pl),
            Arc::new(Tsue),
        ] {
            let mut r = ssd_replay(4, 2, method, TraceFamily::AliCloud, 3);
            r.ops_per_client = 120;
            r.volume_bytes = 32 << 20;
            configs.push(r);
        }
        let parallel = run_grid(&configs);
        assert_eq!(parallel.len(), configs.len());
        for (rcfg, p) in configs.iter().zip(&parallel) {
            let s = Replay::run(rcfg).result;
            assert_eq!(p.method, s.method);
            assert_eq!(p.completed_updates, s.completed_updates);
            assert_eq!(p.net_msgs, s.net_msgs);
            assert_eq!(p.disk.rw_ops(), s.disk.rw_ops());
            assert!((p.update_iops - s.update_iops).abs() < 1e-9);
            assert!((p.net_gib - s.net_gib).abs() < 1e-12);
        }
    }
}
