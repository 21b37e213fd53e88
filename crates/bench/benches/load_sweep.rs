//! Load sweep: open-loop Poisson arrivals ramped across all seven update
//! methods to find each method's **saturation knee** — the offered rate
//! where goodput stops tracking the schedule and queue delay explodes.
//!
//! This is the first experiment in the repository that ranks methods by
//! *sustainable throughput* rather than closed-loop completion time: a
//! closed loop self-throttles to whatever the cluster sustains, so the
//! queueing collapse TSUE's two-stage log front end is built to absorb
//! (PAPER.md §2) never appears there. Here ops arrive on their own
//! schedule; each cell reports offered vs acked rate (goodput),
//! admission-queue p99, and the saturation flag, and the knee per method
//! is the lowest swept rate whose goodput falls more than 10 % short of
//! offered while the admission queues back up.
//!
//! Expected shape: FO's random in-place parity path saturates first;
//! PL-family logs push the knee out; TSUE's sequential append front end
//! sustains the highest offered rate before collapsing.

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::{kfmt, knee_index, print_table, run_grid, ssd_replay, BenchReport};

/// The swept aggregate arrival rates (ops/s). Chosen to bracket every
/// method's knee at the default scale: the slowest method saturates well
/// below the top rung, the fastest still rides the bottom rungs.
fn rates() -> Vec<f64> {
    let base: Vec<f64> = [8_000.0, 16_000.0, 32_000.0, 64_000.0, 128_000.0, 256_000.0].into();
    if tsue_bench::smoke() {
        // Smoke keeps the bracket but skips the middle rungs.
        vec![8_000.0, 64_000.0, 256_000.0]
    } else {
        base
    }
}

fn sweep_replay(method: Arc<dyn UpdateMethod>, rate: f64) -> ReplayConfig {
    let clients = if tsue_bench::smoke() { 6 } else { 8 };
    let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
    r.volume_bytes = 32 << 20;
    r.workload = Workload::Open(OpenLoopSpec::poisson(rate).with_window(4));
    r
}

fn main() {
    let methods = builtins();
    let rates = rates();

    let mut grid = Vec::new();
    let mut labels = Vec::new();
    for method in &methods {
        for &rate in &rates {
            grid.push(sweep_replay(Arc::clone(method), rate));
            labels.push((method.name(), rate));
        }
    }
    let results = run_grid(&grid);

    let mut report = BenchReport::new("load_sweep");
    let mut rows = Vec::new();
    for ((method, rate), res) in labels.iter().zip(&results) {
        let cells = vec![
            ("method", (*method).into()),
            ("rate", (*rate).into()),
            ("offered_ops_per_s", res.offered_ops_per_s.into()),
            ("goodput_ops_per_s", res.goodput_ops_per_s.into()),
            ("queue_delay_p99_us", res.queue_delay_p99_us.into()),
            ("peak_queue_depth", res.peak_queue_depth.into()),
            ("saturated", res.saturated.into()),
        ];
        report.add_row(res, cells);
        assert_eq!(
            res.oracle_violations, 0,
            "{method} at {rate} ops/s violated consistency"
        );
        assert_eq!(
            res.offered_ops,
            res.completed_updates + res.completed_reads + res.completed_writes,
            "{method}: open loop must ack every offered op"
        );
        rows.push(vec![
            method.to_string(),
            kfmt(*rate),
            kfmt(res.offered_ops_per_s),
            kfmt(res.goodput_ops_per_s),
            format!("{:.0}", res.queue_delay_p99_us),
            format!("{}", res.peak_queue_depth),
            if res.saturated {
                "SAT".into()
            } else {
                "ok".into()
            },
        ]);
    }
    print_table(
        "Load sweep: RS(6,3) Ali-Cloud, open-loop Poisson arrivals, window 4",
        &[
            "method",
            "rate",
            "offered/s",
            "goodput/s",
            "qdelay p99 us",
            "peak queue",
            "state",
        ],
        &rows,
    );

    // The knee: lowest offered rate whose saturation is *durable* (the
    // next rung is saturated too — `knee_index` hysteresis filters a
    // one-rung queue-depth blip from a real capacity cliff).
    println!();
    let mut knees = Vec::new();
    for method in methods.iter().map(|m| m.name()) {
        let cells: Vec<(f64, &RunResult)> = labels
            .iter()
            .zip(&results)
            .filter(|((m, _), _)| *m == method)
            .map(|((_, rate), res)| (*rate, res))
            .collect();
        let sat_flags: Vec<bool> = cells.iter().map(|(_, res)| res.saturated).collect();
        let knee = knee_index(&sat_flags).map(|i| &cells[i]);
        let (knee_rate, knee_res) =
            knee.unwrap_or_else(|| panic!("{method} never saturated: raise the top swept rate"));
        // Below the knee the method must actually ride the schedule.
        let floor = &cells.first().expect("rates is non-empty").1;
        assert!(
            !floor.saturated,
            "{method} saturated at the bottom rung: lower the base swept rate"
        );
        println!(
            "  -> {:>5} knee at offered {:>6}/s: goodput caps at {:>6}/s (queue p99 {:.1} ms)",
            method,
            kfmt(*knee_rate),
            kfmt(knee_res.goodput_ops_per_s),
            knee_res.queue_delay_p99_us / 1e3,
        );
        knees.push((method, *knee_rate, knee_res.goodput_ops_per_s));
    }

    // The ranking claim the sweep exists to demonstrate: TSUE sustains at
    // least as high an offered rate as every other method, and strictly
    // out-serves the in-place baseline at the collapse point.
    let knee_of = |m: &str| knees.iter().find(|(k, _, _)| *k == m).unwrap();
    let (_, tsue_knee, tsue_cap) = knee_of("TSUE");
    for (method, knee, _) in &knees {
        assert!(
            tsue_knee >= knee,
            "TSUE's knee ({tsue_knee}) must not come before {method}'s ({knee})"
        );
    }
    let (_, _, fo_cap) = knee_of("FO");
    assert!(
        tsue_cap > fo_cap,
        "TSUE's saturated goodput ({tsue_cap:.0}/s) must exceed FO's ({fo_cap:.0}/s)"
    );

    // Headline findings: each method's knee rate and the goodput it caps
    // at there.
    for (method, knee_rate, knee_cap) in &knees {
        report.add_finding(&format!("knee_rate_{method}"), *knee_rate);
        report.add_finding(&format!("knee_goodput_{method}"), *knee_cap);
    }
    report.write_and_announce();
}
