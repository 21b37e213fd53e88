//! The three `replay-*` workloads: which cells they run, the measuring
//! loop, the output checks, and the metrics derived from the cells.

use std::time::Instant;

use crate::adapter::replay::{self as cell, CellOut, CellSpec, Family, Fault, Load, METHODS};
use crate::spans::Spans;
use crate::stats::{median, Digest};
use crate::{Outcome, ReplayCounts, Run};

const MIB: u64 = 1 << 20;

/// The cells of one pass of `workload`, in run order.
fn cells(workload: &str, seed: u64) -> Vec<CellSpec> {
    let closed = |method, family, ops_per_client| CellSpec {
        method,
        family,
        clients: 16,
        volume_bytes: 128 * MIB,
        load: Load::Closed { ops_per_client },
        fault: None,
        seed,
    };
    match workload {
        // 4 000 ops per client keep every device far below the GC
        // threshold (GC starts near 10 000) and a pass near three seconds.
        "replay-steady" => [Family::Ali, Family::Ten]
            .into_iter()
            .flat_map(|f| METHODS.map(|m| closed(m, f, 4_000)))
            .collect(),
        // 20 000 ops per client: the second half of each cell runs with
        // every device collecting, at 3-4x the steady cost per op.
        "replay-gc" => vec![
            closed("TSUE", Family::Ali, 20_000),
            closed("FO", Family::Ali, 20_000),
        ],
        // 24 000 ops/s is below both methods' fault-free knees; node 3
        // fails a third of the way through the 4.2 simulated seconds.
        "replay-fault" => ["TSUE", "FO"]
            .map(|method| CellSpec {
                method,
                family: Family::Ali,
                clients: 64,
                volume_bytes: 32 * MIB,
                load: Load::Poisson {
                    ops_per_s: 24_000.0,
                    window: 4,
                    total_ops: 100_000,
                },
                fault: Some(Fault {
                    at_ns: 1_400_000_000,
                    node: 3,
                    recovery_delay_ns: 10_000_000,
                }),
                seed,
            })
            .to_vec(),
        other => unreachable!("not a replay workload: {other}"),
    }
}

/// Ops of `spec` that count as failed given what its run returned: ops the
/// run reported failed, ops offered but never acknowledged, and every op of
/// a cell whose oracle found a violation or that lost data (one failed node
/// of sixteen under RS(6,3) may lose none).
fn failed_ops(spec: &CellSpec, out: &CellOut, problems: &mut Vec<String>) -> u64 {
    let tag = format!("{} {:?}", spec.method, spec.family);
    let offered = spec.offered();
    if out.oracle_violations > 0 || out.data_loss_blocks > 0 {
        problems.push(format!(
            "{tag}: {} oracle violations, {} blocks lost",
            out.oracle_violations, out.data_loss_blocks
        ));
        return offered;
    }
    if matches!(spec.load, Load::Poisson { .. }) && out.offered_ops != offered {
        problems.push(format!(
            "{tag}: schedule offered {} of {offered} ops",
            out.offered_ops
        ));
    }
    let unacked = offered.saturating_sub(out.completed());
    if unacked > 0 || out.failed_ops > 0 {
        problems.push(format!(
            "{tag}: {unacked} of {offered} ops unacknowledged, {} failed",
            out.failed_ops
        ));
    }
    unacked.max(out.failed_ops)
}

/// Host seconds and completed ops of a set of runs, set-up excluded.
fn busy<'a>(outs: impl IntoIterator<Item = &'a CellOut>) -> (f64, u64) {
    outs.into_iter().fold((0.0, 0), |(s, n), o| {
        (s + o.wall_s - o.setup_s, n + o.completed())
    })
}

/// The runs of `outs` whose cell uses `method`.
fn of_method<'a>(
    specs: &'a [CellSpec],
    outs: &'a [CellOut],
    method: &'a str,
) -> impl Iterator<Item = &'a CellOut> {
    let cells = specs
        .iter()
        .zip(outs)
        .filter(move |(s, _)| s.method == method);
    cells.map(|(_, c)| c)
}

fn us_per_op<'a>(outs: impl IntoIterator<Item = &'a CellOut>) -> f64 {
    let (s, n) = busy(outs);
    s * 1e6 / n as f64
}

/// Runs a `replay-*` workload and derives its metrics.
pub fn run(workload: &str, run: &Run, spans: &mut Spans) -> Outcome {
    let mut o = Outcome::default();
    let specs = cells(workload, run.input_seed());
    let user_bytes: Vec<u64> = specs.iter().map(CellSpec::user_bytes).collect();

    // Untimed warm-up: page in the code and the allocator.
    cell::run(
        &CellSpec {
            load: Load::Closed {
                ops_per_client: 500,
            },
            ..cells("replay-steady", run.input_seed())[6]
        },
        false,
    );

    let root_start = Instant::now();
    let root = spans.add("measure", root_start, root_start, None, 0);
    // Untraced passes feed every end-to-end metric; a traced run repeats
    // each pass with the repo's tracing armed and stage by stage.
    let mut passes: Vec<Vec<CellOut>> = Vec::new();
    let mut traced: Vec<Vec<CellOut>> = Vec::new();
    let mut stages: Vec<[f64; 5]> = Vec::new();
    let mut staged_events = Vec::new();
    loop {
        let mut outs = Vec::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let t0 = Instant::now();
            let out = cell::run(spec, false);
            spans.add(
                "replay.untraced",
                t0,
                Instant::now(),
                Some(root),
                i as u32 + 1,
            );
            o.attempted += spec.offered();
            o.failed += failed_ops(spec, &out, &mut o.problems);
            outs.push(out);
        }
        passes.push(outs);
        if run.traced {
            let mut outs = Vec::with_capacity(specs.len());
            let mut sum = [0.0; 5];
            let mut events = 0;
            for (i, spec) in specs.iter().enumerate() {
                let id = i as u32 + 1;
                let t0 = Instant::now();
                let out = cell::run(spec, true);
                spans.add("replay.traced", t0, Instant::now(), Some(root), id);
                o.attempted += spec.offered();
                o.failed += failed_ops(spec, &out, &mut o.problems);
                let st = cell::run_staged(spec, true);
                let parent = spans.add("replay.staged", st.start, st.oracle_end, Some(root), id);
                let built = st.start + std::time::Duration::from_secs_f64(st.setup_s);
                spans.add("replay.setup", st.start, built, Some(parent), id);
                spans.add("replay.run", built, st.run_end, Some(parent), id);
                spans.add("replay.drain", st.run_end, st.drain_end, Some(parent), id);
                spans.add(
                    "replay.oracle",
                    st.drain_end,
                    st.oracle_end,
                    Some(parent),
                    id,
                );
                if st.violations > 0 {
                    o.problems
                        .push(format!("{}: staged run violates the oracle", spec.method));
                }
                let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
                let staged_total = secs(st.start, st.oracle_end);
                for (acc, v) in sum.iter_mut().zip([
                    st.setup_s,
                    secs(st.start, st.run_end) - st.setup_s,
                    secs(st.run_end, st.drain_end),
                    secs(st.drain_end, st.oracle_end),
                    out.wall_s - staged_total,
                ]) {
                    *acc += v;
                }
                events += st.sim_events;
                outs.push(out);
            }
            traced.push(outs);
            stages.push(sum);
            staged_events.push(events);
        }
        if !run.fits_another(root_start, passes.len()) {
            break;
        }
    }

    // Every pass replays the same cells: its simulated results must repeat
    // exactly, traced or not, staged or not.
    let first = &passes[0];
    let sim = sim_digest(first, &user_bytes);
    for (kind, set) in [("untraced", &passes[1..]), ("traced", &traced[..])] {
        for (n, outs) in set.iter().enumerate() {
            if sim_digest(outs, &user_bytes) != sim {
                o.problems
                    .push(format!("{kind} pass {n} simulated a different result"));
            }
        }
    }
    let events: u64 = first.iter().map(|c| c.sim_events).sum();
    if staged_events.iter().any(|&e| e != events) {
        o.problems
            .push("the staged pipeline executed a different event count".into());
    }
    o.digest = sim;
    o.notes.push(format!(
        "{} passes of {} cells, {} ops each pass",
        passes.len(),
        specs.len(),
        first.iter().map(CellOut::completed).sum::<u64>()
    ));

    // Host metrics: one value per pass, median over passes.
    let per_pass =
        |f: &dyn Fn(&[CellOut]) -> f64| median(&passes.iter().map(|p| f(p)).collect::<Vec<_>>());
    o.set("host_us_per_op", per_pass(&|p| us_per_op(p)));
    o.set("setup_s", per_pass(&|p| p.iter().map(|c| c.setup_s).sum()));
    for method in METHODS {
        if specs.iter().any(|s| s.method == method) {
            o.set(
                &format!("ecfs.methods.{}.us_per_op", method.to_lowercase()),
                per_pass(&|p| us_per_op(of_method(&specs, p, method))),
            );
        }
    }

    // Simulated results, from the first pass (all passes agree).
    let pick = |method: &str| -> Vec<(&CellOut, u64)> {
        specs
            .iter()
            .zip(first.iter().zip(&user_bytes))
            .filter(|(s, _)| s.method == method)
            .map(|(_, (c, &b))| (c, b))
            .collect()
    };
    let kiops = |cells: &[(&CellOut, u64)]| {
        cells.iter().map(|(c, _)| c.updates).sum::<u64>() as f64
            / cells.iter().map(|(c, _)| c.duration_s).sum::<f64>()
            / 1e3
    };
    let tsue = pick("TSUE");
    let tsue_updates: u64 = tsue.iter().map(|(c, _)| c.updates).sum();
    o.set("sim_update_kiops", kiops(&tsue));
    o.set(
        "sim_update_mean_us",
        tsue.iter()
            .map(|(c, _)| c.latency_mean_us * c.updates as f64)
            .sum::<f64>()
            / tsue_updates as f64,
    );
    o.set(
        "sim_update_p99_us",
        tsue.iter()
            .map(|(c, _)| c.latency_p99_us)
            .fold(0.0, f64::max),
    );
    let ratio = kiops(&tsue) / kiops(&pick("FO"));
    o.set("sim_tsue_over_fo", ratio);
    o.set(
        "sim_write_amp",
        (tsue.iter().map(|(c, _)| c.nand_pages).sum::<u64>() * cell::page_bytes()) as f64
            / tsue.iter().map(|(_, b)| b).sum::<u64>() as f64,
    );
    o.notes.push(format!(
        "sim_tsue_over_fo {ratio:.2} vs the paper's 7.6 (Ali-Cloud) and 5 (Ten-Cloud): relative \
         gap {:+.0} % and {:+.0} %; model unvalidated beyond the abstract's figures",
        (ratio / 7.6 - 1.0) * 100.0,
        (ratio / 5.0 - 1.0) * 100.0
    ));
    o.notes.push(
        "sim_update_p99_us is a log2-bucket upper bound (simdes::Histogram), up to 2x high".into(),
    );

    // Device and fabric counts of the first pass.
    let total = |f: &dyn Fn(&CellOut) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let ops = total(&CellOut::completed);
    o.set("simdisk.erases", total(&|c| c.erases));
    o.set("simdisk.gc_moved_pages", total(&|c| c.gc_moved_pages));
    o.set(
        "simdisk.nand_write_amp",
        total(&|c| c.nand_pages) * cell::page_bytes() as f64 / total(&|c| c.disk_write_bytes),
    );
    o.set("simnet.msgs_per_op", total(&|c| c.net_msgs) / ops);
    o.set("ecfs.replay.events_per_op", events as f64 / ops);
    o.counts = Some(ReplayCounts {
        disk_rw_ops: total(&|c| c.disk_rw_ops),
        net_msgs: total(&|c| c.net_msgs),
        sim_events: events as f64,
        busy_s: busy(first).0,
    });

    if run.traced {
        let stage = |i: usize| median(&stages.iter().map(|s| s[i]).collect::<Vec<_>>());
        for (i, name) in ["setup_s", "run_s", "drain_s", "oracle_s", "harvest_s"]
            .iter()
            .enumerate()
        {
            o.set(&format!("ecfs.replay.{name}"), stage(i));
        }
        telemetry(&mut o, &specs, &passes, &traced);
        if workload == "replay-fault" {
            recovery(&mut o, &specs[0], &passes);
        }
        if workload == "replay-steady" {
            // The same cells through the sweeps' fan-out, one replay per
            // worker thread, against the serial pass.
            let t0 = Instant::now();
            let (grid_s, grid_ops) = cell::run_grid(&specs);
            spans.add("bench.run_grid", t0, Instant::now(), Some(root), 0);
            let serial_s: f64 = first.iter().map(|c| c.wall_s).sum();
            if grid_ops as f64 != ops {
                o.problems
                    .push("run_grid completed a different op count".into());
            }
            o.set("bench.grid.speedup_nproc", serial_s / grid_s);
        }
    }
    spans.end(root, Instant::now());
    o
}

/// Hash of every simulated result and exact counter of one pass.
fn sim_digest(outs: &[CellOut], user_bytes: &[u64]) -> Digest {
    let mut d = Digest::default();
    for (c, &bytes) in outs.iter().zip(user_bytes) {
        for v in [
            c.sim_events,
            c.net_msgs,
            c.disk_rw_ops,
            c.erases,
            c.nand_pages,
            c.gc_moved_pages,
            c.updates,
            c.reads,
            c.writes,
            c.failed_ops,
            c.repaired_blocks,
            bytes,
        ] {
            d.count(v);
        }
        for v in [c.duration_s, c.latency_mean_us, c.latency_p99_us, c.mttr_s] {
            d.float(v);
        }
    }
    d
}

/// The repo's own tracing: what it costs the host and how its stage rollup
/// splits the simulated update latency.
fn telemetry(
    o: &mut Outcome,
    specs: &[CellSpec],
    passes: &[Vec<CellOut>],
    traced: &[Vec<CellOut>],
) {
    let overhead: Vec<f64> = passes
        .iter()
        .zip(traced)
        .map(|(a, b)| us_per_op(b) / us_per_op(a))
        .collect();
    o.set("ecfs.telemetry.trace_overhead", median(&overhead));
    let cells = &traced[0];
    o.set(
        "ecfs.telemetry.dropped_spans",
        cells.iter().map(|c| c.dropped_spans).sum::<u64>() as f64,
    );
    let stage_us = |c: &CellOut| c.update_stages.iter().map(|(_, us)| us).sum::<f64>();
    o.set(
        "ecfs.telemetry.attribution",
        cells.iter().map(stage_us).sum::<f64>()
            / cells
                .iter()
                .map(|c| c.latency_mean_us * c.traced_updates as f64)
                .sum::<f64>(),
    );
    for method in ["TSUE", "FO"] {
        let of_method: Vec<&CellOut> = of_method(specs, cells, method).collect();
        let all: f64 = of_method.iter().map(|c| stage_us(c)).sum();
        for stage in [
            "queue_wait",
            "net_send",
            "disk_io",
            "log_append",
            "parity_io",
            "ack",
        ] {
            // `fold`, not `sum`: a stage the method never enters is 0, not -0.
            let us = of_method
                .iter()
                .flat_map(|c| &c.update_stages)
                .filter(|(name, _)| *name == stage)
                .fold(0.0, |acc, (_, us)| acc + us);
            o.set(
                &format!("ecfs.telemetry.{}.{stage}_share", method.to_lowercase()),
                us / all,
            );
        }
    }
}

/// What the failure costs: the TSUE cell against itself without the fault.
fn recovery(o: &mut Outcome, tsue: &CellSpec, passes: &[Vec<CellOut>]) {
    let faulted = &passes[0][0];
    let calm = cell::run(
        &CellSpec {
            fault: None,
            ..*tsue
        },
        false,
    );
    let faulted_us = median(
        &passes
            .iter()
            .map(|p| us_per_op(&p[..1]))
            .collect::<Vec<_>>(),
    );
    o.set(
        "ecfs.recovery.fault_extra_us_per_op",
        faulted_us - us_per_op([&calm]),
    );
    o.set(
        "ecfs.recovery.extra_events",
        faulted.sim_events as f64 - calm.sim_events as f64,
    );
    o.set("ecfs.recovery.mttr_s", faulted.mttr_s);
    o.set("ecfs.recovery.degraded_p99_us", faulted.degraded_p99_us);
    o.set(
        "ecfs.recovery.repaired_blocks",
        faulted.repaired_blocks as f64,
    );
}
