//! Open-loop bursts: the experiment a closed loop cannot run.
//!
//! A closed-loop client issues its next op only when the previous one
//! completes, so the offered rate politely shrinks to whatever the cluster
//! sustains — no method ever *falls behind*. Real tenants are not polite:
//! ops arrive on their own schedule, bursts pile into queues, and a method
//! either absorbs the burst or collapses.
//!
//! This example offers the same bursty on/off arrival schedule (drawn once,
//! Poisson inside the bursts) to FO (in-place overwrite) and TSUE. The mean
//! offered rate sits between their saturation knees, so the run shows the
//! headline result of the load sweep in miniature: **FO saturates — goodput
//! decouples from the offered rate and admission queues explode — while
//! TSUE rides the identical schedule**, because its front end turns every
//! update into a sequential replicated log append and defers the expensive
//! parity work to the recycle pipeline.
//!
//! Run with: `cargo run --release -p tsue-examples --example open_loop`

use ecfs::prelude::*;

fn replay(method: Method, spec: OpenLoopSpec) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = 8;
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = 500;
    r.volume_bytes = 32 << 20;
    r.workload = Workload::Open(spec);
    r
}

fn main() {
    // 20 ms cycles: 8 ms bursts at 120 kop/s, 12 ms valleys at 10 kop/s.
    // Mean offered rate = 120k * 0.4 + 10k * 0.6 = 54 kop/s — above FO's
    // sustainable throughput (~38 kop/s at this scale), below TSUE's
    // (~82 kop/s).
    let bursts = RateCurve::OnOff {
        on_ops_per_s: 120_000.0,
        off_ops_per_s: 10_000.0,
        period_ns: 20 * simdes::units::MILLIS,
        duty: 0.4,
    };
    println!(
        "Offering Poisson on/off bursts (mean {:.0} kop/s, peaks {:.0} kop/s) \
         to 8 clients, window 4:\n",
        bursts.mean_rate() / 1e3,
        120.0
    );

    let spec = OpenLoopSpec::poisson(0.0).with_rate(bursts).with_window(4);

    let mut results = Vec::new();
    for method in [Method::Fo, Method::Tsue] {
        let r = Replay::run(&replay(method, spec.clone())).result;
        assert_eq!(r.oracle_violations, 0);
        println!("{}:", r.method);
        println!(
            "  offered   {:>8.0} ops/s ({} ops)",
            r.offered_ops_per_s, r.offered_ops
        );
        println!("  goodput   {:>8.0} ops/s", r.goodput_ops_per_s);
        println!(
            "  queue     mean {:.0} us, p99 {:.0} us, peak depth {}",
            r.queue_delay_mean_us, r.queue_delay_p99_us, r.peak_queue_depth
        );
        println!("  update    p99 {:.0} us", r.latency_p99_us);
        println!(
            "  state     {}\n",
            if r.saturated {
                "SATURATED (fell behind the schedule)"
            } else {
                "rode the schedule"
            }
        );
        results.push(r);
    }

    let (fo, tsue) = (&results[0], &results[1]);
    assert!(
        fo.saturated,
        "FO must fall behind a {:.0} kop/s mean burst schedule",
        fo.offered_ops_per_s / 1e3
    );
    assert!(!tsue.saturated, "TSUE must absorb the identical schedule");
    assert!(tsue.goodput_ops_per_s > fo.goodput_ops_per_s);
    assert!(tsue.queue_delay_p99_us < fo.queue_delay_p99_us);
    println!(
        "Same schedule, same cluster: FO backlogged {} ops deep (queue p99 \
         {:.1} ms) while TSUE's worst admission wait stayed at {:.1} ms — the \
         two-stage log front end absorbs bursts that collapse in-place updates.",
        fo.peak_queue_depth,
        fo.queue_delay_p99_us / 1e3,
        tsue.queue_delay_p99_us / 1e3,
    );
}
