//! `ecfs` replay cells. Uses only the surface ROADMAP arc 3 keeps:
//! `ClusterConfig::builder().method_name(..)`, `ReplayConfig::builder`,
//! `Replay::run`, `run_update_phase` / `methods::drain` /
//! `methods::pending_log_bytes` / `Oracle::violations`, and the `RunResult`
//! fields copied into [`CellOut`].

use std::time::Instant;

use ecfs::methods;
use ecfs::prelude::{
    Cluster, ClusterConfig, FaultPlan, OpClass, OpenLoopSpec, Replay, ReplayConfig, TraceConfig,
    Workload,
};
use traces::{OpKind, TraceFamily, WorkloadGen, WorkloadParams};

/// The seven update methods, as registry spec strings, in the paper's order.
pub const METHODS: [&str; 7] = ["FO", "FL", "PL", "PLR", "PARIX", "CoRD", "TSUE"];

/// The two cloud trace families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Ali-Cloud: 75 % updates, mean ≈ 40 KiB.
    Ali,
    /// Ten-Cloud: 69 % updates, 69 % of them 4 KiB, strong skew.
    Ten,
}

impl Family {
    fn trace_family(self) -> TraceFamily {
        match self {
            Family::Ali => TraceFamily::AliCloud,
            Family::Ten => TraceFamily::TenCloud,
        }
    }

    /// The family's workload parameters over a volume of `volume_bytes`.
    pub fn params(self, volume_bytes: u64) -> WorkloadParams {
        WorkloadParams::for_family(self.trace_family(), volume_bytes)
    }
}

/// How a cell offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Closed loop: each client issues its next op when the last completes.
    Closed {
        /// Ops each client issues.
        ops_per_client: usize,
    },
    /// Open loop: Poisson arrivals at a fixed aggregate rate, uniform
    /// clients, at most `window` ops outstanding per client.
    Poisson {
        /// Aggregate offered rate, ops per simulated second.
        ops_per_s: f64,
        /// Per-client outstanding-op window.
        window: usize,
        /// Ops the schedule offers in total.
        total_ops: u64,
    },
}

/// One scheduled node failure.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Simulated time of the failure.
    pub at_ns: u64,
    /// The node that fails.
    pub node: usize,
    /// Detection lag before repair starts.
    pub recovery_delay_ns: u64,
}

/// One replay cell on the 16-node SSD testbed, RS(6,3).
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Registry spec string of the update method.
    pub method: &'static str,
    /// Trace family.
    pub family: Family,
    /// Client streams.
    pub clients: u64,
    /// Logical volume per client.
    pub volume_bytes: u64,
    /// Offered load.
    pub load: Load,
    /// Optional mid-run node failure.
    pub fault: Option<Fault>,
    /// Base seed (client `c` draws from `seed + c`).
    pub seed: u64,
}

impl CellSpec {
    /// Ops the cell offers.
    pub fn offered(&self) -> u64 {
        match self.load {
            Load::Closed { ops_per_client } => self.clients * ops_per_client as u64,
            Load::Poisson { total_ops, .. } => total_ops,
        }
    }

    fn config(&self, traced: bool) -> ReplayConfig {
        let cluster = ClusterConfig::builder()
            .code(super::code())
            .method_name(self.method)
            .clients(self.clients)
            .build()
            .expect("benchmark cluster config is valid");
        let mut b = ReplayConfig::builder(cluster, self.family.trace_family())
            .volume_bytes(self.volume_bytes)
            .seed(self.seed);
        b = match self.load {
            Load::Closed { ops_per_client } => b.ops_per_client(ops_per_client),
            Load::Poisson {
                ops_per_s,
                window,
                total_ops,
            } => b
                .workload(Workload::Open(
                    OpenLoopSpec::poisson(ops_per_s).with_window(window),
                ))
                .total_ops(total_ops),
        };
        if let Some(f) = self.fault {
            b = b.faults(
                FaultPlan::new()
                    .fail_node(f.at_ns, f.node)
                    .with_recovery_delay(f.recovery_delay_ns),
            );
        }
        if traced {
            b = b.trace(TraceConfig::on());
        }
        b.build().expect("benchmark replay config is valid")
    }

    /// Bytes the cell's seeded op stream updates or writes (reads excluded):
    /// the denominator of write amplification. Regenerates the same stream
    /// the replay draws, so it is exact, and is not timed.
    pub fn user_bytes(&self) -> u64 {
        let params = self.family.params(self.volume_bytes);
        let written = |kind: OpKind, len: u32| match kind {
            OpKind::Read => 0,
            OpKind::Update | OpKind::Write => len as u64,
        };
        match self.load {
            Load::Closed { ops_per_client } => (0..self.clients)
                .map(|c| {
                    WorkloadGen::new(params.clone(), self.seed + c)
                        .take(ops_per_client)
                        .map(|op| written(op.kind, op.len))
                        .sum::<u64>()
                })
                .sum(),
            Load::Poisson {
                ops_per_s,
                window,
                total_ops,
            } => OpenLoopSpec::poisson(ops_per_s)
                .with_window(window)
                .source(&params, self.clients, total_ops, self.seed)
                .map(|t| written(t.op.kind, t.op.len))
                .sum(),
        }
    }
}

/// What the benchmark reads from one `Replay::run` — the `RunResult` fields
/// it depends on, plus the harness's own wall time around the call.
#[derive(Debug, Clone)]
pub struct CellOut {
    /// Host seconds around `Replay::run` (build → harvest).
    pub wall_s: f64,
    /// `RunResult.setup_ms` in seconds: host time before the first event.
    pub setup_s: f64,
    /// `completed_updates`.
    pub updates: u64,
    /// `completed_reads`.
    pub reads: u64,
    /// `completed_writes`.
    pub writes: u64,
    /// `duration_s` (simulated).
    pub duration_s: f64,
    /// `latency_mean_us` (simulated).
    pub latency_mean_us: f64,
    /// `latency_p99_us` (simulated; log2-bucket upper bound).
    pub latency_p99_us: f64,
    /// `disk.rw_ops()`.
    pub disk_rw_ops: u64,
    /// `disk.nand_pages_programmed`.
    pub nand_pages: u64,
    /// `disk.gc_relocated_pages`.
    pub gc_moved_pages: u64,
    /// `disk.writes.bytes`.
    pub disk_write_bytes: u64,
    /// `erases`.
    pub erases: u64,
    /// `net_msgs`.
    pub net_msgs: u64,
    /// `sim_events`.
    pub sim_events: u64,
    /// `oracle_violations`.
    pub oracle_violations: usize,
    /// `failed_ops`.
    pub failed_ops: u64,
    /// `data_loss_blocks`.
    pub data_loss_blocks: u64,
    /// `offered_ops` (0 on the closed loop).
    pub offered_ops: u64,
    /// `repaired_blocks`.
    pub repaired_blocks: u64,
    /// `mttr_s` (simulated).
    pub mttr_s: f64,
    /// `degraded_p99_us` (simulated).
    pub degraded_p99_us: f64,
    /// `trace_dropped_spans`.
    pub dropped_spans: u64,
    /// `stage_breakdown`, Update class only: `(stage name, total µs)`.
    pub update_stages: Vec<(&'static str, f64)>,
    /// Most spans any Update-class stage recorded: the traced update count.
    pub traced_updates: u64,
}

impl CellOut {
    /// Client ops completed.
    pub fn completed(&self) -> u64 {
        self.updates + self.reads + self.writes
    }
}

/// NAND page size of the testbed's devices.
pub fn page_bytes() -> u64 {
    simdisk::SsdConfig::default().page_size
}

/// Runs one cell through `Replay::run`; `traced` arms the repo's own
/// `TraceConfig::on()`.
pub fn run(spec: &CellSpec, traced: bool) -> CellOut {
    let rcfg = spec.config(traced);
    let t0 = Instant::now();
    let r = Replay::run(&rcfg).result;
    let wall_s = t0.elapsed().as_secs_f64();
    let update_rows = || {
        r.stage_breakdown
            .iter()
            .filter(|s| s.class == OpClass::Update)
    };
    CellOut {
        wall_s,
        setup_s: r.setup_ms / 1e3,
        updates: r.completed_updates,
        reads: r.completed_reads,
        writes: r.completed_writes,
        duration_s: r.duration_s,
        latency_mean_us: r.latency_mean_us,
        latency_p99_us: r.latency_p99_us,
        disk_rw_ops: r.disk.rw_ops(),
        nand_pages: r.disk.nand_pages_programmed,
        gc_moved_pages: r.disk.gc_relocated_pages,
        disk_write_bytes: r.disk.writes.bytes,
        erases: r.erases,
        net_msgs: r.net_msgs,
        sim_events: r.sim_events,
        oracle_violations: r.oracle_violations,
        failed_ops: r.failed_ops,
        data_loss_blocks: r.data_loss_blocks,
        offered_ops: r.offered_ops,
        repaired_blocks: r.repaired_blocks,
        mttr_s: r.mttr_s,
        degraded_p99_us: r.degraded_p99_us,
        dropped_spans: r.trace_dropped_spans,
        update_stages: update_rows()
            .map(|s| (s.stage.name(), s.total_us))
            .collect(),
        traced_updates: update_rows().map(|s| s.count).max().unwrap_or(0),
    }
}

/// The instants between the public pipeline's stages for one cell.
#[derive(Debug, Clone, Copy)]
pub struct Staged {
    /// Before `run_update_phase`.
    pub start: Instant,
    /// Host seconds of that call spent building the cluster and the load.
    pub setup_s: f64,
    /// After `run_update_phase` returned.
    pub run_end: Instant,
    /// After the `methods::drain` loop emptied every log.
    pub drain_end: Instant,
    /// After `Oracle::violations`.
    pub oracle_end: Instant,
    /// Violations the oracle found.
    pub violations: usize,
    /// Events the simulator executed.
    pub sim_events: u64,
}

/// Runs one cell stage by stage through the public pipeline — what
/// `Replay::run` does before it harvests.
pub fn run_staged(spec: &CellSpec, traced: bool) -> Staged {
    let rcfg = spec.config(traced);
    let start = Instant::now();
    let (mut sim, mut cl) = ecfs::prelude::run_update_phase(&rcfg);
    let run_end = Instant::now();
    let mut rounds = 0;
    loop {
        methods::drain(&mut sim, &mut cl);
        sim.run(&mut cl);
        if methods::pending_log_bytes(&cl) == 0 {
            break;
        }
        rounds += 1;
        assert!(rounds < 1000, "drain did not converge");
    }
    let drain_end = Instant::now();
    let violations = cl.oracle.violations(&cl.layout).len();
    let oracle_end = Instant::now();
    Staged {
        start,
        setup_s: cl.metrics.setup_ms / 1e3,
        run_end,
        drain_end,
        oracle_end,
        violations,
        sim_events: sim.events_executed(),
    }
}

/// Host seconds of one `Cluster::new` for the testbed.
pub fn cluster_new_s(method: &str) -> f64 {
    let cfg = ClusterConfig::builder()
        .code(super::code())
        .method_name(method)
        .build()
        .expect("benchmark cluster config is valid");
    let t0 = Instant::now();
    let cl = Cluster::new(std::hint::black_box(cfg));
    let s = t0.elapsed().as_secs_f64();
    std::hint::black_box(&cl);
    s
}

/// Runs `specs` through `tsue_bench::run_grid` (the sweeps' fan-out, one
/// replay per worker thread); returns host seconds and ops completed.
pub fn run_grid(specs: &[CellSpec]) -> (f64, u64) {
    let configs: Vec<ReplayConfig> = specs.iter().map(|s| s.config(false)).collect();
    let t0 = Instant::now();
    let results = tsue_bench::run_grid(&configs);
    let s = t0.elapsed().as_secs_f64();
    let ops = results
        .iter()
        .map(|r| r.completed_updates + r.completed_reads + r.completed_writes)
        .sum();
    (s, ops)
}
