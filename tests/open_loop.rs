//! Open-loop workload-engine integration tests: determinism under the
//! parallel grid, the offered-vs-acked sanity contract against the closed
//! loop, a pinned golden, and real-arrival replay of an imported trace.

use ecfs::prelude::*;

fn closed_replay(method: Arc<dyn UpdateMethod>, clients: u64, ops: usize) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = clients;
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = ops;
    r.volume_bytes = 32 << 20;
    r
}

fn open_replay(method: Arc<dyn UpdateMethod>, clients: u64, ops: usize, rate: f64) -> ReplayConfig {
    let mut r = closed_replay(method, clients, ops);
    r.workload = Workload::Open(OpenLoopSpec::poisson(rate).with_window(4));
    r
}

#[test]
fn open_loop_validates() {
    let mut r = open_replay(Arc::new(Tsue), 4, 100, 10_000.0);
    r.validate().unwrap();
    r.workload = Workload::Open(OpenLoopSpec::poisson(0.0));
    assert!(r.validate().is_err(), "zero rate must be rejected");
    r.workload = Workload::Open(OpenLoopSpec::poisson(1_000.0).with_window(0));
    assert!(r.validate().is_err(), "zero window must be rejected");
    r.workload = Workload::Timed {
        stream: TimedStream::default(),
        window: 4,
    };
    assert!(r.validate().is_err(), "empty stream must be rejected");
}

#[test]
fn open_loop_parallel_grid_matches_serial() {
    // The open-loop engine must stay a pure function of its config: the
    // parallel grid fan-out returns field-for-field the serial results.
    let mut configs = Vec::new();
    for method in [
        Arc::new(Fo) as Arc<dyn UpdateMethod>,
        Arc::new(Pl),
        Arc::new(Tsue),
    ] {
        configs.push(open_replay(method, 3, 120, 24_000.0));
    }
    let parallel = tsue_bench::run_grid(&configs);
    for (rcfg, p) in configs.iter().zip(&parallel) {
        let s = Replay::run(rcfg).result;
        assert_eq!(p.method, s.method);
        assert_eq!(p.completed_updates, s.completed_updates);
        assert_eq!(p.completed_reads, s.completed_reads);
        assert_eq!(p.offered_ops, s.offered_ops);
        assert_eq!(p.net_msgs, s.net_msgs);
        assert_eq!(p.disk.rw_ops(), s.disk.rw_ops());
        assert_eq!(p.peak_queue_depth, s.peak_queue_depth);
        assert_eq!(p.saturated, s.saturated);
        assert!((p.goodput_ops_per_s - s.goodput_ops_per_s).abs() < 1e-9);
        assert!((p.queue_delay_p99_us - s.queue_delay_p99_us).abs() < 1e-9);
    }
}

#[test]
fn unsaturated_open_loop_tracks_offered_rate() {
    // Closed loop measures the self-throttled capacity; an open loop
    // offered well below it must ride the schedule: goodput ≈ offered,
    // no saturation, near-empty admission queues.
    let closed = Replay::run(&closed_replay(Arc::new(Tsue), 4, 250)).result;
    let capacity = closed.goodput_ops_per_s;
    assert!(capacity > 0.0);
    assert_eq!(closed.offered_ops, 0, "closed loop offers no schedule");
    assert!(!closed.saturated);

    let low = Replay::run(&open_replay(Arc::new(Tsue), 4, 250, capacity * 0.4)).result;
    assert_eq!(low.oracle_violations, 0);
    assert!(!low.saturated, "40% of capacity must not saturate");
    assert!(
        (low.goodput_ops_per_s - low.offered_ops_per_s).abs() / low.offered_ops_per_s < 0.10,
        "goodput {:.0}/s must track offered {:.0}/s",
        low.goodput_ops_per_s,
        low.offered_ops_per_s
    );
    // Every offered op was acked.
    assert_eq!(
        low.offered_ops,
        low.completed_updates + low.completed_reads + low.completed_writes
    );
}

#[test]
fn overdriven_open_loop_saturates_and_caps_at_capacity() {
    // Offered far above capacity: the saturation flag trips, goodput
    // decouples from the schedule, and the queue-delay signature appears.
    let closed = Replay::run(&closed_replay(Arc::new(Fo), 4, 250)).result;
    let capacity = closed.goodput_ops_per_s;

    let hot = Replay::run(&open_replay(Arc::new(Fo), 4, 250, capacity * 8.0)).result;
    assert_eq!(hot.oracle_violations, 0);
    assert!(hot.saturated, "8x capacity must saturate");
    assert!(
        hot.goodput_ops_per_s < hot.offered_ops_per_s * 0.9,
        "goodput {:.0}/s suspiciously close to offered {:.0}/s",
        hot.goodput_ops_per_s,
        hot.offered_ops_per_s
    );
    assert!(hot.peak_queue_depth > 10, "collapse must back up admission");
    assert!(hot.queue_delay_p99_us > hot.queue_delay_mean_us);
    // Saturated goodput stays in the ballpark of sustainable capacity
    // (open-loop window 4 > closed-loop window 1, so it may exceed it,
    // but not by an order of magnitude).
    assert!(
        hot.goodput_ops_per_s < capacity * 10.0 && hot.goodput_ops_per_s > capacity * 0.5,
        "saturated goodput {:.0}/s vs closed-loop capacity {capacity:.0}/s",
        hot.goodput_ops_per_s
    );
    // Every op still completes eventually — open loop loses nothing.
    assert_eq!(
        hot.offered_ops,
        hot.completed_updates + hot.completed_reads + hot.completed_writes
    );
}

/// Pinned golden for the open-loop engine, captured when the engine
/// landed. Any drift means the arrival schedule, the admission queue, or
/// the dispatch order changed — all of which are meant to be deterministic
/// functions of the config.
#[test]
fn open_loop_golden() {
    let r = Replay::run(&open_replay(Arc::new(Tsue), 4, 250, 30_000.0)).result;
    assert_eq!(r.offered_ops, 1000);
    // The op mix differs slightly from the closed-loop golden (768/157/75):
    // arrivals are drawn per client, so clients consume different depths of
    // their content streams — by design, not drift.
    assert_eq!(r.completed_updates, 763);
    assert_eq!(r.completed_reads, 160);
    assert_eq!(r.completed_writes, 77);
    assert_eq!(r.net_msgs, 3_469);
    assert_eq!(r.disk.rw_ops(), 3_703);
    assert_eq!(r.oracle_violations, 0);
    let duration_ns = (r.duration_s * 1e9).round() as u64;
    assert_eq!(duration_ns, 35_068_172, "open-loop timing drifted");
}

/// The sparse O(active) runtime must be byte-for-byte the dense runtime it
/// replaced at the old population sizes — pinned via an exhaustive
/// `RunResult` destructure (mirroring `tests/determinism.rs::canon`): a
/// new field breaks this compile until it is classified, and any drift in
/// the scale fields means the sparse bookkeeping changed.
#[test]
fn sparse_runtime_matches_dense_golden_exhaustively() {
    let RunResult {
        method,
        completed_updates,
        completed_reads,
        completed_writes,
        duration_s,
        update_iops,
        latency_mean_us,
        latency_p99_us,
        disk,
        net_gib,
        net_cross_rack_gib,
        net_msgs,
        erases,
        series,
        log_memory_bytes,
        data_residency: _,
        delta_residency: _,
        parity_residency: _,
        stalls,
        cache_read_hits: _,
        drain_s,
        oracle_violations,
        degraded_reads,
        degraded_bytes_decoded,
        failed_ops,
        inline_rebuilds,
        repaired_blocks,
        repaired_bytes,
        data_loss_blocks,
        net_repair_gib,
        mttr_s,
        degraded_p99_us,
        steady_p99_us,
        read_p99_us,
        degraded_read_p99_us: _,
        steady_read_p99_us: _,
        offered_ops,
        offered_ops_per_s,
        goodput_ops_per_s,
        queue_delay_mean_us,
        queue_delay_p99_us,
        peak_queue_depth,
        saturated,
        active_clients_peak,
        client_state_bytes,
        workload_state_bytes,
        disk_fill_max,
        disk_fill_min,
        wear_max_bytes,
        wear_spread,
        copysets_used,
        scrub_gib,
        lse_injected,
        lse_found,
        lse_repaired,
        maint_migrated_gib,
        wear_spread_before,
        maint_busy_p99_us,
        maint_idle_p99_us,
        stage_breakdown,
        trace_dropped_spans,
        cache_lookups,
        cache_hits,
        cache_hit_ratio,
        staged_bytes,
        coalesced_bytes,
        stage_flushes,
        sim_events,
        wall_ms: _,
        events_per_sec: _,
        setup_ms: _,
    } = Replay::run(&open_replay(Arc::new(Tsue), 4, 250, 30_000.0)).result;

    // The open_loop_golden pins (same run, re-asserted here so this test
    // stands alone).
    assert_eq!(method, "TSUE");
    assert_eq!(offered_ops, 1000);
    assert_eq!(completed_updates, 763);
    assert_eq!(completed_reads, 160);
    assert_eq!(completed_writes, 77);
    assert_eq!(net_msgs, 3_469);
    assert_eq!(disk.rw_ops(), 3_703);
    assert_eq!(oracle_violations, 0);
    assert_eq!((duration_s * 1e9).round() as u64, 35_068_172);

    // The sparse-runtime scale fields, pinned when the O(active) engine
    // landed: all four clients go active at this rate, the runtime state
    // is a few hundred bytes, and the lazy source holds four generators.
    assert_eq!(active_clients_peak, 4);
    assert_eq!(client_state_bytes, 592);
    assert_eq!(workload_state_bytes, 2_276);
    assert_eq!(peak_queue_depth, 10);
    assert!(!saturated);

    // Everything else: sane, deterministic, fault/maintenance-free values.
    assert!(update_iops > 0.0 && goodput_ops_per_s > 0.0);
    assert!(latency_mean_us > 0.0 && latency_p99_us >= latency_mean_us);
    assert!(offered_ops_per_s > 0.0);
    assert!(queue_delay_mean_us >= 0.0 && queue_delay_p99_us >= 0.0);
    assert!(net_gib > 0.0 && net_cross_rack_gib >= 0.0);
    assert!(erases > 0 || log_memory_bytes > 0 || stalls == 0);
    assert!(!series.is_empty());
    assert!(drain_s >= 0.0);
    assert_eq!(
        (
            degraded_reads,
            degraded_bytes_decoded,
            failed_ops,
            inline_rebuilds,
            repaired_blocks,
            repaired_bytes,
            data_loss_blocks,
        ),
        (0, 0, 0, 0, 0, 0, 0)
    );
    assert_eq!(net_repair_gib, 0.0);
    assert_eq!(mttr_s, 0.0);
    assert_eq!(degraded_p99_us, 0.0);
    assert!(steady_p99_us > 0.0 && read_p99_us > 0.0);
    assert!(disk_fill_max >= disk_fill_min && disk_fill_min >= 0.0);
    assert!(wear_max_bytes > 0 && wear_spread >= 1.0);
    assert!(copysets_used > 0);
    assert_eq!((scrub_gib, maint_migrated_gib), (0.0, 0.0));
    assert_eq!((lse_injected, lse_found, lse_repaired), (0, 0, 0));
    assert_eq!(wear_spread_before, 0.0);
    assert_eq!((maint_busy_p99_us, maint_idle_p99_us), (0.0, 0.0));
    // Tracing is off by default: no rollup rows, no drops.
    assert!(stage_breakdown.is_empty());
    assert_eq!(trace_dropped_spans, 0);
    // No cache/staging decorator armed: the ledger stays zero.
    assert_eq!((cache_lookups, cache_hits), (0, 0));
    assert_eq!(cache_hit_ratio, 0.0);
    assert_eq!((staged_bytes, coalesced_bytes, stage_flushes), (0, 0, 0));
    assert!(sim_events > 0);
}

/// A million-client population at a fixed offered-op budget must cost
/// O(active), not O(population): same active peak, same runtime bytes,
/// and a consistent replay — the tentpole contract, asserted at test
/// scale (the scale_sweep bench carries the full 1k → 1M trajectory).
#[test]
fn million_client_population_stays_o_active() {
    let build = |pop: u64| {
        let mut r = closed_replay(Arc::new(Tsue), pop, 250);
        r.total_ops = Some(1_000);
        r.workload = Workload::Open(
            OpenLoopSpec::poisson(30_000.0)
                .with_window(4)
                .with_client_skew(ClientSkew::Zipf { theta: 0.9 }),
        );
        r.validate().unwrap();
        r
    };
    let small = Replay::run(&build(1_000)).result;
    let huge = Replay::run(&build(1_000_000)).result;

    for r in [&small, &huge] {
        assert_eq!(r.oracle_violations, 0);
        assert_eq!(r.offered_ops, 1_000, "total_ops decouples from clients");
        assert_eq!(
            r.offered_ops,
            r.completed_updates + r.completed_reads + r.completed_writes
        );
    }
    // Active set tracks the window math (rate × service time), not the id
    // space: a thousand times more clients, the same handful active.
    assert!(
        huge.active_clients_peak < 64,
        "active peak {} at 1M clients should be tens, not thousands",
        huge.active_clients_peak
    );
    assert!(
        huge.client_state_bytes <= small.client_state_bytes * 2,
        "client state {}B at 1M vs {}B at 1k — sparse runtime leaked",
        huge.client_state_bytes,
        small.client_state_bytes
    );
    // The lazy source only materialises touched generators: far below the
    // ~200 B/op an eagerly materialised million-client schedule would pin.
    assert!(
        huge.workload_state_bytes < 16 << 20,
        "workload source holds {}B — lazy arrivals are not lazy",
        huge.workload_state_bytes
    );
}

#[test]
fn timed_stream_replays_imported_arrivals() {
    // An imported Alibaba excerpt replays through the open-loop engine on
    // its real (scaled) arrival schedule: every op is acked, and the
    // cluster observes exactly the stream's op mix.
    let csv = "\
64,W,0,16384,1000\n\
64,W,16384,16384,1400\n\
64,R,0,4096,1650\n\
64,W,0,8192,2100\n\
64,R,16384,8192,2600\n\
64,W,32768,4096,3000\n";
    let records = traces::io::read_ali_csv(csv.as_bytes()).unwrap();
    let ops = traces::io::ali_to_ops(&records);
    let updates = ops
        .iter()
        .filter(|o| o.kind == traces::OpKind::Update)
        .count();
    assert_eq!(updates, 1, "fixture has one overwrite");

    let mut rcfg = closed_replay(Arc::new(Tsue), 2, 1);
    // Stretch the 2 ms excerpt to 40 ms — the knob that replays a
    // recorded trace slower or faster than real time.
    let stream = TimedStream::round_robin(2, ops)
        .fit_to_volume(rcfg.volume_bytes)
        .scale_rate(0.05);
    rcfg.workload = Workload::Timed { stream, window: 2 };
    rcfg.validate().unwrap();
    let r = Replay::run(&rcfg).result;
    assert_eq!(r.offered_ops, 6);
    assert_eq!(r.completed_reads, 2);
    assert_eq!(r.completed_updates + r.completed_writes, 4);
    assert_eq!(r.oracle_violations, 0);
    assert!(!r.saturated, "six paced ops cannot saturate a testbed");
}

#[test]
fn bursty_and_skewed_specs_replay_consistently() {
    // The composable corners: on/off bursts, diurnal curves, Zipf-hot
    // clients, hot-range offsets — each must produce a consistent replay.
    let specs = [
        OpenLoopSpec::poisson(20_000.0).with_rate(RateCurve::OnOff {
            on_ops_per_s: 60_000.0,
            off_ops_per_s: 2_000.0,
            period_ns: 20 * simdes::units::MILLIS,
            duty: 0.3,
        }),
        OpenLoopSpec::periodic(20_000.0).with_rate(RateCurve::Diurnal {
            peak_ops_per_s: 40_000.0,
            trough_ops_per_s: 4_000.0,
            period_ns: 50 * simdes::units::MILLIS,
        }),
        OpenLoopSpec::poisson(20_000.0)
            .with_client_skew(ClientSkew::Zipf { theta: 0.9 })
            .with_offset_skew(OffsetSkew::HotRange {
                hot_fraction: 0.05,
                access_fraction: 0.95,
            }),
        OpenLoopSpec::poisson(20_000.0)
            .with_client_skew(ClientSkew::HotSpot {
                hot_fraction: 0.25,
                hot_share: 0.9,
            })
            .with_offset_skew(OffsetSkew::Uniform),
    ];
    for spec in specs {
        let mut r = closed_replay(Arc::new(Tsue), 4, 150);
        r.workload = Workload::Open(spec);
        r.validate().unwrap();
        let res = Replay::run(&r).result;
        assert_eq!(res.oracle_violations, 0);
        assert_eq!(res.offered_ops, 600);
        assert_eq!(
            res.offered_ops,
            res.completed_updates + res.completed_reads + res.completed_writes
        );
    }
}
