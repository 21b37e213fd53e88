//! Scale sweep: the million-client trajectory — population ramped
//! 1 k → 10 k → 100 k → 1 M while the cluster grows 10 → 60 nodes and the
//! offered *work* stays fixed (`total_ops` decoupled from population).
//!
//! The claim under test is the open-loop runtime's O(active) contract:
//! client state is materialised on first arrival and retired when
//! drained, arrivals stream from a lazy [`ArrivalSource`] one op ahead,
//! and client picks go through the O(1) alias-table Zipf sampler — so a
//! million-client population must cost what its *active* window math
//! costs, not what its id space suggests. Every cell reports the measured
//! peak of concurrently-active clients, the resident client/workload
//! state in bytes (counted from the live maps, not estimated), the
//! one-time setup wall-clock, and the engine's events/s.
//!
//! Each population also sweeps offered rate over knee rungs scaled to its
//! cluster's capacity, so the load_sweep ranking claim — TSUE saturates
//! no earlier than FO — is re-proven at every population, including where
//! the eager runtime could not even have allocated its dense per-client
//! vectors.
//!
//! The sweep asserts the trajectory flat: events/s at 1 M within a
//! bounded factor of 1 k, peak active tracking window math not
//! population, client-state bytes at 1 M within 2x of 1 k, and the
//! TSUE >= FO knee ranking surviving at every population with both knees
//! non-decreasing as the cluster grows.

use ecfs::prelude::*;
use traces::TraceFamily;
use tsue_bench::sweep::{fixed, kilo, plain, state, Results, Sweep};
use tsue_bench::{kfmt, ladder_knee, ssd_replay, BenchReport};

/// The constant-rate reference rung every population runs: well below the
/// smallest (10-node) cluster's FO knee, so the per-population resident
/// state and engine-speed findings compare unsaturated like with like.
const REF_RATE: f64 = 12_000.0;

/// Swept populations with the cluster sized to each: the fleet grows with
/// the client base (10 → 60 OSDs) the way a deployment would, while the
/// offered work stays fixed.
fn populations() -> Vec<(u64, usize)> {
    if tsue_bench::smoke() {
        vec![(1_000, 10), (50_000, 30)]
    } else {
        vec![(1_000, 10), (10_000, 20), (100_000, 40), (1_000_000, 60)]
    }
}

/// Fixed offered work per cell, independent of population — the knob that
/// makes resident-state comparisons across populations meaningful.
fn cell_ops() -> u64 {
    if tsue_bench::smoke() {
        1_500
    } else {
        6_000
    }
}

/// The swept rates for a cluster of `nodes` OSDs: the constant reference
/// rung plus knee rungs scaled per node, bracketing both methods' knees
/// with wide margins (measured caps at this shape: FO sustains
/// ~3.3 k ops/s/node, TSUE ~7 k+ once enough clients are active) so no
/// rung sits in the noisy near-cap band.
fn rates(nodes: usize) -> Vec<f64> {
    let n = nodes as f64;
    vec![REF_RATE, 1_500.0 * n, 6_000.0 * n, 24_000.0 * n]
}

/// Whether a cell ran past its cluster's capacity.
///
/// The replay's own `saturated` flag requires a *per-client-window*
/// backlog (peak admission queue >= the active set's total window budget
/// alongside the goodput shortfall), which is the right saturation signal
/// at load_sweep's small client counts but thins out at large
/// populations: an overloaded million-client cell
/// spreads its backlog one op deep across hundreds of clients and the
/// per-window criterion never trips. At scale the capacity signal is the
/// goodput itself: a cell riding its schedule acks at the offered rate
/// (minus a small drain tail), a capped cell acks at the cluster's
/// service rate no matter what was offered. Measured cells land either
/// above 0.9x or below 0.7x of nominal — 0.75 splits the gap.
fn past_capacity(nominal_rate: f64, res: &RunResult) -> bool {
    res.saturated || res.goodput_ops_per_s < 0.75 * nominal_rate
}

/// A cell: population, nodes, method, offered rate (ops/s).
type Label = (u64, usize, String, f64);
type Column = tsue_bench::sweep::Column<Label>;

pub fn sweep() -> Sweep<Label> {
    let methods: [Arc<dyn UpdateMethod>; 2] = [Arc::new(Fo), Arc::new(Tsue)];
    let mut cells = Vec::new();
    for (population, nodes) in populations() {
        for method in &methods {
            for rate in rates(nodes) {
                let mut r = ssd_replay(6, 3, Arc::clone(method), TraceFamily::AliCloud, population);
                r.cluster.nodes = nodes;
                r.volume_bytes = 32 << 20;
                r.total_ops = Some(cell_ops());
                let skew = ClientSkew::Zipf { theta: 0.9 };
                let arrivals = OpenLoopSpec::poisson(rate)
                    .with_window(4)
                    .with_client_skew(skew);
                r.workload = Workload::Open(arrivals);
                cells.push(((population, nodes, method.name().to_string(), rate), r));
            }
        }
    }
    let title = "Scale sweep: RS(6,3) Ali-Cloud, Zipf(0.9) clients, window 4, fixed total ops";
    Sweep::new("scale", title, cells, check).columns([
        Column::key("population", |r| r.label.0).show("clients", kilo),
        Column::key("nodes", |r| r.label.1).show("nodes", plain),
        Column::key("method", |r| r.label.2.clone()).show("method", plain),
        Column::key("rate", |r| r.label.3).show("rate", kilo),
        Column::key("offered_ops_per_s", |r| r.res.offered_ops_per_s),
        Column::key("goodput_ops_per_s", |r| r.res.goodput_ops_per_s).show("goodput/s", kilo),
        Column::key("saturated", |r| past_capacity(r.label.3, r.res)).show("state", state),
        Column::key("window_backlogged", |r| r.res.saturated),
        Column::key("active_clients_peak", |r| r.res.active_clients_peak)
            .show("active peak", plain),
        Column::key("client_state_bytes", |r| r.res.client_state_bytes).show("client B", plain),
        Column::key("workload_state_bytes", |r| r.res.workload_state_bytes)
            .show("workload B", plain),
        Column::key("setup_ms", |r| r.res.setup_ms).show("setup ms", fixed::<1>),
    ])
}

fn check(results: &Results<Label>, report: &mut BenchReport) {
    for ((population, _, method, rate), res) in results.iter() {
        assert_eq!(
            res.failed_ops, 0,
            "{method} at population {population} rate {rate}: open loop must ack every offered op"
        );
    }

    // Per-population knees (hysteresis, as in load_sweep) and the scale
    // findings off the constant-rate reference rung.
    println!();
    // Per population, ascending: (population, TSUE reference cell, TSUE
    // knee, FO knee).
    let mut trajectory: Vec<(u64, &RunResult, f64, f64)> = Vec::new();
    for (population, _) in populations() {
        let mut knees = Vec::new();
        for method in ["FO", "TSUE"] {
            let ladder: Vec<(f64, &RunResult)> = results
                .iter()
                .filter(|((p, _, m, _), _)| *p == population && m == method)
                .map(|((_, _, _, rate), res)| (*rate, res))
                .collect();
            let what = format!("{method} at population {population}");
            let (knee_rate, knee_res) = ladder_knee(&what, &ladder, past_capacity);
            println!(
                "  -> pop {:>5} {:>4} knee at offered {:>7}/s (goodput {:>6}/s)",
                kfmt(population as f64),
                method,
                kfmt(knee_rate),
                kfmt(knee_res.goodput_ops_per_s),
            );
            report.add_finding(&format!("knee_rate_{method}_{population}"), knee_rate);
            knees.push(knee_rate);
        }
        // The ranking claim must survive every population.
        let (fo, tsue) = (knees[0], knees[1]);
        assert!(
            tsue >= fo,
            "population {population}: TSUE's knee ({tsue}) fell below FO's ({fo})"
        );

        // Scale findings from TSUE's unsaturated reference cell: this is
        // the apples-to-apples trajectory asserted flat below.
        let reference =
            results.get(|(p, _, m, rate)| *p == population && m == "TSUE" && *rate == REF_RATE);
        let key = |name: &str| format!("{name}_{population}");
        report.add_finding(&key("active_peak"), reference.active_clients_peak as f64);
        report.add_finding(&key("state_bytes"), reference.client_state_bytes as f64);
        report.add_finding(
            &key("workload_bytes"),
            reference.workload_state_bytes as f64,
        );
        report.add_finding(&key("events_per_sec"), reference.events_per_sec);
        report.add_finding(&key("setup_ms"), reference.setup_ms);
        trajectory.push((population, reference, tsue, fo));
    }

    // The O(active) contract across the ramp, smallest population against
    // largest.
    assert!(
        trajectory.len() >= 2,
        "scale_sweep must ramp the population ({} sizes)",
        trajectory.len()
    );
    let (min_pop, small, _, _) = trajectory[0];
    let (max_pop, large, _, _) = trajectory[trajectory.len() - 1];
    // The peak of concurrently-active clients tracks the arrival/window
    // math, not the id space: growing the population by orders of
    // magnitude must not grow it past a small factor, and it must stay
    // nowhere near the population.
    let (peak_min, peak_max) = (
        small.active_clients_peak as f64,
        large.active_clients_peak as f64,
    );
    assert!(
        peak_max <= (4.0 * peak_min).max(64.0),
        "peak active clients track population, not window math \
         ({peak_max} at {max_pop} vs {peak_min} at {min_pop})"
    );
    assert!(
        peak_max * 100.0 <= max_pop as f64,
        "peak active clients ({peak_max}) approach the {max_pop}-client population"
    );
    // Resident client state is O(active), so the largest population costs
    // what the smallest does.
    let (bytes_min, bytes_max) = (
        small.client_state_bytes as f64,
        large.client_state_bytes as f64,
    );
    assert!(
        bytes_max <= 2.0 * bytes_min,
        "client state at {max_pop} clients ({bytes_max} B) exceeds 2x of \
         {min_pop} clients ({bytes_min} B)"
    );
    // Replay speed must not collapse with the id space. This is a
    // wall-clock measurement, so the bound is deliberately loose (the
    // largest cell also runs a 6x bigger cluster): a factor 4 catches an
    // O(population) regression (the eager runtime was ~1000x here)
    // without flaking on runner noise.
    assert!(
        large.events_per_sec * 4.0 >= small.events_per_sec,
        "replay speed at {max_pop} clients ({:.0} ev/s) below 1/4 of {min_pop} \
         clients ({:.0} ev/s)",
        large.events_per_sec,
        small.events_per_sec
    );
    // Setup is streamed, not materialised.
    assert!(
        large.setup_ms.is_finite(),
        "setup at {max_pop} clients took {} ms",
        large.setup_ms
    );
    // Both methods' knees grow (or hold) as the cluster scales up.
    for pair in trajectory.windows(2) {
        let ((prev_pop, _, prev_tsue, prev_fo), (pop, _, tsue, fo)) = (pair[0], pair[1]);
        assert!(
            tsue >= prev_tsue && fo >= prev_fo,
            "knees fell from {prev_pop} to {pop} clients \
             (TSUE {prev_tsue} -> {tsue}, FO {prev_fo} -> {fo})"
        );
    }
}
