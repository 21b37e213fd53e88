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
//! Measured ladder at default scale (knee's offered rate, goodput there):
//! PLR saturates first, at 32k ops/s offered and 14.2k of goodput; FO,
//! PL, PARIX and CoRD at 64k (37.9k, 48.1k, 40.9k and 51.9k of goodput);
//! FL and TSUE at 128k (58.5k and 80.4k). The check asserts that TSUE's
//! knee comes no earlier than any other method's and that TSUE's capped
//! goodput is above FO's.

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, kilo, plain, state, Results, Sweep};
use tsue_bench::{kfmt, ladder_knee, ssd_replay, BenchReport};

/// A cell: method, offered rate (ops/s).
type Label = (String, f64);
type Column = tsue_bench::sweep::Column<Label>;

/// The swept aggregate arrival rates (ops/s). Chosen to bracket every
/// method's knee at the default scale: the slowest method saturates well
/// below the top rung, the fastest still rides the bottom rungs.
fn rates() -> Vec<f64> {
    if tsue_bench::smoke() {
        // Smoke keeps the bracket but skips the middle rungs.
        vec![8_000.0, 64_000.0, 256_000.0]
    } else {
        vec![8_000.0, 16_000.0, 32_000.0, 64_000.0, 128_000.0, 256_000.0]
    }
}

pub fn sweep() -> Sweep<Label> {
    let clients = if tsue_bench::smoke() { 6 } else { 8 };
    let mut cells = Vec::new();
    for method in Method::ALL {
        for rate in rates() {
            let mut r = ssd_replay(6, 3, method, TraceFamily::AliCloud, clients);
            r.volume_bytes = 32 << 20;
            r.workload = Workload::Open(OpenLoopSpec::poisson(rate).with_window(4));
            cells.push(((method.name().to_string(), rate), r));
        }
    }
    let title = "Load sweep: RS(6,3) Ali-Cloud, open-loop Poisson arrivals, window 4";
    Sweep::new("load", title, cells, check).columns([
        Column::key("method", |r| r.label.0.clone()).show("method", plain),
        Column::key("rate", |r| r.label.1).show("rate", kilo),
        Column::key("offered_ops_per_s", |r| r.res.offered_ops_per_s).show("offered/s", kilo),
        Column::key("goodput_ops_per_s", |r| r.res.goodput_ops_per_s).show("goodput/s", kilo),
        Column::key("queue_delay_p99_us", |r| r.res.queue_delay_p99_us)
            .show("qdelay p99 us", fixed::<0>),
        Column::key("peak_queue_depth", |r| r.res.peak_queue_depth).show("peak queue", plain),
        Column::key("saturated", |r| r.res.saturated).show("state", state),
    ])
}

fn check(results: &Results<Label>, report: &mut BenchReport) {
    for ((method, rate), res) in results.iter() {
        assert_eq!(
            res.failed_ops, 0,
            "{method} at {rate} ops/s: open loop must ack every offered op"
        );
    }

    // The knee: lowest offered rate whose saturation is *durable* (the
    // next rung is saturated too — `knee_index` hysteresis filters a
    // one-rung queue-depth blip from a real capacity cliff).
    println!();
    let mut knees = Vec::new();
    for method in Method::ALL.map(Method::name) {
        let ladder: Vec<(f64, &RunResult)> = results
            .iter()
            .filter(|((m, _), _)| m == method)
            .map(|((_, rate), res)| (*rate, res))
            .collect();
        let (knee_rate, knee_res) = ladder_knee(method, &ladder, |_, res| res.saturated);
        println!(
            "  -> {:>5} knee at offered {:>6}/s: goodput caps at {:>6}/s (queue p99 {:.1} ms)",
            method,
            kfmt(knee_rate),
            kfmt(knee_res.goodput_ops_per_s),
            knee_res.queue_delay_p99_us / 1e3,
        );
        knees.push((method, knee_rate, knee_res.goodput_ops_per_s));
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
}
