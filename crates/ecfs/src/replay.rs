//! Trace replay: closed-loop clients driving the cluster, the open-loop
//! offered-load engine, and the measurement harvest every benchmark
//! consumes.

use simdes::stats::SampleLog;
use simdes::{Sim, SimTime};
use std::collections::VecDeque;

use traces::{OpKind, TraceFamily, WorkloadGen, WorkloadParams};
use workload::{OpenLoopSpec, TimedStream};

use crate::cluster::{Cluster, OpSource, OpenLoopRt};
use crate::config::ClusterConfig;
use crate::fault::FaultPlan;
use crate::maintenance::{self, MaintenancePlan};
use crate::methods::spec::{Decorator, MethodSpec};
use crate::methods::tsue_drv::Layer;
use crate::methods::{self, UpdateCtx};
use crate::recovery;
use crate::telemetry::{StageRow, Trace, TraceConfig};

/// Goodput below this fraction of the offered rate marks a run saturated —
/// provided the admission queues actually backed up (at least one full
/// window population waiting at peak): the cluster fell behind the
/// schedule instead of riding it. The backlog condition keeps the flag off
/// for short streams whose completion tail alone depresses the ratio.
pub const SATURATION_GOODPUT_RATIO: f64 = 0.9;

/// How the replay offers load to the cluster.
#[derive(Debug, Clone, Default)]
pub enum Workload {
    /// Closed loop (the paper's client model and the default): each client
    /// issues its next op the instant the previous one completes. This
    /// path is byte-for-byte the pre-open-loop replay.
    #[default]
    ClosedLoop,
    /// Open loop: ops arrive on the spec's own schedule whether or not
    /// earlier ops finished; each client holds at most `spec.window` ops
    /// outstanding and queues the rest at admission.
    Open(OpenLoopSpec),
    /// Open-loop replay of a pre-built timed stream — e.g. an imported
    /// MSR/Alibaba trace with its *real* arrival times.
    Timed {
        /// The offered ops, time-sorted.
        stream: TimedStream,
        /// Per-client outstanding-op window.
        window: usize,
    },
}

impl Workload {
    /// Whether this is the closed-loop default.
    pub fn is_closed_loop(&self) -> bool {
        matches!(self, Workload::ClosedLoop)
    }
}

/// Replay parameters.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Cluster under test.
    pub cluster: ClusterConfig,
    /// Trace family to synthesise.
    pub family: TraceFamily,
    /// Operations each client issues.
    pub ops_per_client: usize,
    /// Total ops an open-loop spec offers. `None` (the default) offers
    /// `clients × ops_per_client`, matching the closed loop's volume.
    /// `Some(n)` decouples the offered-op count from the population — the
    /// scale sweep holds `n` fixed while growing clients to a million, so
    /// runtime cost tracks the offered load, not the id space. Ignored on
    /// the closed-loop and timed paths.
    pub total_ops: Option<u64>,
    /// Logical volume size per client.
    pub volume_bytes: u64,
    /// Base RNG seed (client `c` uses `seed + c`).
    pub seed: u64,
    /// Scheduled mid-replay failures and the repair policy. The default
    /// (empty) plan reproduces the pre-fault-timeline replay byte for
    /// byte.
    pub faults: FaultPlan,
    /// How load is offered: the closed-loop default (byte-for-byte the
    /// legacy replay) or an open-loop source.
    pub workload: Workload,
    /// Background maintenance to run alongside the foreground traffic.
    /// The default (empty) plan arms nothing and reproduces the
    /// maintenance-free replay byte for byte.
    pub maintenance: MaintenancePlan,
    /// Deterministic tracing. The default (off) arms nothing and
    /// reproduces the untraced replay byte for byte; when enabled the run
    /// records per-op lifecycle spans, the stage-attribution rollup
    /// (`RunResult::stage_breakdown`), and utilization lanes.
    pub trace: TraceConfig,
}

impl ReplayConfig {
    /// Defaults matching the paper's scale, shrunk to simulation size.
    pub fn new(cluster: ClusterConfig, family: TraceFamily) -> ReplayConfig {
        ReplayConfig {
            cluster,
            family,
            ops_per_client: 2_000,
            total_ops: None,
            volume_bytes: 256 << 20,
            seed: 0x7565_7374,
            faults: FaultPlan::default(),
            workload: Workload::ClosedLoop,
            maintenance: MaintenancePlan::default(),
            trace: TraceConfig::default(),
        }
    }

    /// A builder over [`Self::new`]'s defaults with fail-fast validation.
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use ecfs::methods::Tsue;
    /// use ecfs::{ClusterConfig, ReplayConfig};
    /// use rscode::CodeParams;
    /// use traces::TraceFamily;
    ///
    /// let cluster = ClusterConfig::ssd_testbed(
    ///     CodeParams::new(6, 3).unwrap(),
    ///     Arc::new(Tsue),
    /// );
    /// let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
    ///     .ops_per_client(500)
    ///     .volume_bytes(64 << 20)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(rcfg.ops_per_client, 500);
    /// ```
    pub fn builder(cluster: ClusterConfig, family: TraceFamily) -> ReplayConfigBuilder {
        ReplayConfigBuilder {
            inner: ReplayConfig::new(cluster, family),
        }
    }

    /// Validates the replay parameters and the embedded cluster config.
    pub fn validate(&self) -> Result<(), crate::config::ConfigError> {
        self.cluster.validate()?;
        if self.ops_per_client == 0 {
            return Err("ops_per_client must be positive".into());
        }
        if self.total_ops == Some(0) {
            return Err("total_ops must be positive when set".into());
        }
        // The workload generator needs at least 16 slots of 4 KiB.
        if self.volume_bytes < 16 * 4096 {
            return Err(crate::config::ConfigError(format!(
                "volume_bytes = {} is below the 64 KiB workload minimum",
                self.volume_bytes
            )));
        }
        self.faults.validate(&self.cluster)?;
        // A staged flush replays through the wrapped driver directly,
        // bypassing the degraded-mode dispatch in `methods::begin_update`:
        // on a stripe that lost a block it would write to a dead node.
        // (`Cached` names itself by its canonical spec, so the name says
        // whether a staging buffer is armed, builder- or spec-built.)
        let method = self.cluster.method.name();
        let spec = MethodSpec::parse(method).ok();
        let staged = spec.as_ref().is_some_and(|spec| {
            spec.decorators
                .iter()
                .any(|d| matches!(d, Decorator::Stage { .. }))
        });
        if staged && !self.faults.is_empty() {
            return Err(crate::config::ConfigError(format!(
                "method {method:?} arms a staging buffer and the fault plan is non-empty: \
                 staged flushes bypass degraded-mode dispatch, so staging cannot be \
                 combined with a fault timeline"
            )));
        }
        self.maintenance.validate(&self.cluster)?;
        self.trace.validate().map_err(crate::config::ConfigError)?;
        match &self.workload {
            Workload::ClosedLoop => {}
            Workload::Open(spec) => spec.validate().map_err(crate::config::ConfigError)?,
            Workload::Timed { stream, window } => {
                if *window == 0 {
                    return Err("open-loop window must admit at least one op".into());
                }
                stream
                    .validate(self.cluster.clients, self.volume_bytes)
                    .map_err(crate::config::ConfigError)?;
            }
        }
        // TSUE appends each update slice to one DataLog unit whole, so a
        // unit smaller than the largest slice would panic mid-replay. A
        // slice is at most one block and one op; a staged flush replays a
        // coalesced range of up to a whole block.
        if spec.is_some_and(|spec| spec.base.eq_ignore_ascii_case("TSUE")) {
            let block = self.cluster.block_bytes;
            let largest_op = match &self.workload {
                Workload::Timed { stream, .. } => {
                    stream.ops().iter().map(|t| t.op.len as u64).max()
                }
                Workload::ClosedLoop | Workload::Open(_) => {
                    WorkloadParams::for_family(self.family, self.volume_bytes)
                        .size_dist
                        .iter()
                        .map(|&(size, _)| size as u64)
                        .max()
                }
            };
            let largest = if staged {
                block
            } else {
                block.min(largest_op.unwrap_or(0))
            };
            if largest > self.cluster.tsue_unit_bytes {
                return Err(crate::config::ConfigError(format!(
                    "tsue_unit_bytes = {} cannot hold the largest TSUE log record, \
                     {largest} bytes",
                    self.cluster.tsue_unit_bytes
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`ReplayConfig`] (see [`ReplayConfig::builder`]).
#[derive(Debug, Clone)]
pub struct ReplayConfigBuilder {
    inner: ReplayConfig,
}

impl ReplayConfigBuilder {
    /// Operations each client issues.
    pub fn ops_per_client(mut self, ops: usize) -> Self {
        self.inner.ops_per_client = ops;
        self
    }

    /// Total ops an open-loop spec offers, decoupled from the population
    /// (see [`ReplayConfig::total_ops`]).
    ///
    /// ```
    /// use ecfs::prelude::*;
    ///
    /// let cluster = ClusterConfig::ssd_testbed(
    ///     CodeParams::new(6, 3).unwrap(),
    ///     Arc::new(Tsue),
    /// );
    /// let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
    ///     .workload(Workload::Open(OpenLoopSpec::poisson(20_000.0)))
    ///     .total_ops(5_000)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(rcfg.total_ops, Some(5_000));
    /// ```
    pub fn total_ops(mut self, ops: u64) -> Self {
        self.inner.total_ops = Some(ops);
        self
    }

    /// Logical volume size per client.
    pub fn volume_bytes(mut self, bytes: u64) -> Self {
        self.inner.volume_bytes = bytes;
        self
    }

    /// Base RNG seed (client `c` uses `seed + c`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Scheduled mid-replay failures and the repair policy.
    ///
    /// ```
    /// use ecfs::prelude::*;
    ///
    /// let cluster = ClusterConfig::ssd_testbed(
    ///     CodeParams::new(6, 3).unwrap(),
    ///     Arc::new(Tsue),
    /// );
    /// let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
    ///     .faults(FaultPlan::new().fail_node(10_000_000, 3))
    ///     .build()
    ///     .unwrap();
    /// assert!(!rcfg.faults.is_empty());
    /// ```
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.inner.faults = plan;
        self
    }

    /// Background maintenance to run alongside the foreground traffic.
    ///
    /// ```
    /// use ecfs::prelude::*;
    ///
    /// let cluster = ClusterConfig::ssd_testbed(
    ///     CodeParams::new(6, 3).unwrap(),
    ///     Arc::new(Tsue),
    /// );
    /// let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
    ///     .maintenance(MaintenancePlan::new().with_scrub(ScrubConfig::default()))
    ///     .build()
    ///     .unwrap();
    /// assert!(!rcfg.maintenance.is_empty());
    /// ```
    pub fn maintenance(mut self, plan: MaintenancePlan) -> Self {
        self.inner.maintenance = plan;
        self
    }

    /// Deterministic tracing (off by default).
    ///
    /// ```
    /// use ecfs::prelude::*;
    ///
    /// let cluster = ClusterConfig::ssd_testbed(
    ///     CodeParams::new(6, 3).unwrap(),
    ///     Arc::new(Tsue),
    /// );
    /// let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
    ///     .trace(TraceConfig::on())
    ///     .build()
    ///     .unwrap();
    /// assert!(rcfg.trace.enabled);
    /// ```
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.inner.trace = trace;
        self
    }

    /// How load is offered (closed loop, an open-loop spec, or a timed
    /// stream).
    ///
    /// ```
    /// use ecfs::prelude::*;
    ///
    /// let cluster = ClusterConfig::ssd_testbed(
    ///     CodeParams::new(6, 3).unwrap(),
    ///     Arc::new(Tsue),
    /// );
    /// let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
    ///     .workload(Workload::Open(OpenLoopSpec::poisson(20_000.0)))
    ///     .build()
    ///     .unwrap();
    /// assert!(!rcfg.workload.is_closed_loop());
    /// ```
    pub fn workload(mut self, workload: Workload) -> Self {
        self.inner.workload = workload;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<ReplayConfig, crate::config::ConfigError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

/// Residency summary for one log layer (Table 2 row).
#[derive(Debug, Clone, Copy, Default)]
pub struct ResidencySummary {
    /// Mean append time (µs).
    pub append_us: f64,
    /// Mean buffered time (µs).
    pub buffer_us: f64,
    /// Mean recycle time (µs).
    pub recycle_us: f64,
}

impl ResidencySummary {
    fn from_layer(l: &crate::cluster::LayerResidency) -> ResidencySummary {
        ResidencySummary {
            append_us: l.append.mean() / 1_000.0,
            buffer_us: l.buffer.mean() / 1_000.0,
            recycle_us: l.recycle.mean() / 1_000.0,
        }
    }

    /// Total mean residency (µs).
    pub fn total_us(&self) -> f64 {
        self.append_us + self.buffer_us + self.recycle_us
    }
}

/// Everything a benchmark needs from one replay.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Display name of the method under test.
    pub method: String,
    /// Updates acknowledged.
    pub completed_updates: u64,
    /// Reads completed.
    pub completed_reads: u64,
    /// Fresh writes completed.
    pub completed_writes: u64,
    /// Simulated seconds from first issue to last client completion.
    pub duration_s: f64,
    /// Aggregate update throughput (client-acked updates per second).
    pub update_iops: f64,
    /// Mean client-observed update latency (µs).
    pub latency_mean_us: f64,
    /// p99 update latency (µs, bucket upper bound).
    pub latency_p99_us: f64,
    /// Cluster-aggregated device statistics.
    pub disk: simdisk::DeviceStats,
    /// Network traffic (GiB).
    pub net_gib: f64,
    /// Traffic that crossed the spine (GiB); zero on a flat topology.
    pub net_cross_rack_gib: f64,
    /// Network messages.
    pub net_msgs: u64,
    /// Total NAND erases.
    pub erases: u64,
    /// Update completions per second over time (Fig. 6a series).
    pub series: Vec<(f64, f64)>,
    /// Log memory footprint at end of run (bytes).
    pub log_memory_bytes: u64,
    /// DataLog residency.
    pub data_residency: ResidencySummary,
    /// DeltaLog residency.
    pub delta_residency: ResidencySummary,
    /// ParityLog residency.
    pub parity_residency: ResidencySummary,
    /// Client ops that hit log back-pressure.
    pub stalls: u64,
    /// Reads served from log caches.
    pub cache_read_hits: u64,
    /// Reads checked against a node-local cache decorator
    /// ([`crate::cache`]); 0 unless a cache/staging layer is armed.
    pub cache_lookups: u64,
    /// Reads served from the node-local cache decorator (no disk, no
    /// delegation to the wrapped method).
    pub cache_hits: u64,
    /// [`Self::cache_hits`] over [`Self::cache_lookups`] (0.0 when no
    /// lookups happened).
    pub cache_hit_ratio: f64,
    /// Update bytes absorbed into write-staging buffers.
    pub staged_bytes: u64,
    /// Staged bytes that overlapped already-staged ranges — downstream
    /// work the coalescing buffer absorbed outright.
    pub coalesced_bytes: u64,
    /// Staged-buffer flush events (size, age, or drain triggered).
    pub stage_flushes: u64,
    /// Seconds spent draining logs after the run.
    pub drain_s: f64,
    /// Consistency-oracle violations (must be 0).
    pub oracle_violations: usize,
    /// Reads served by decoding the lost block from `k` survivors.
    pub degraded_reads: u64,
    /// Bytes produced by degraded-read decoding.
    pub degraded_bytes_decoded: u64,
    /// Ops aborted because their stripe lost more than `m` blocks (EIO).
    pub failed_ops: u64,
    /// Blocks rebuilt inline by the degraded write path.
    pub inline_rebuilds: u64,
    /// Blocks rebuilt by the background repair scheduler.
    pub repaired_blocks: u64,
    /// Bytes rebuilt by the background repair scheduler.
    pub repaired_bytes: u64,
    /// Lost blocks that could not be rebuilt (data loss).
    pub data_loss_blocks: u64,
    /// Fabric traffic carried for repair flows (GiB).
    pub net_repair_gib: f64,
    /// Worst failure-to-repair-completion time over the fault plan,
    /// seconds (0 without faults).
    pub mttr_s: f64,
    /// p99 update latency (µs) *inside* degraded windows — between a
    /// failure and the end of its repair. 0 without faults.
    pub degraded_p99_us: f64,
    /// p99 update latency (µs) outside degraded windows. Equals
    /// [`Self::latency_p99_us`] without faults.
    pub steady_p99_us: f64,
    /// p99 client-observed read latency (µs), degraded decodes included.
    pub read_p99_us: f64,
    /// p99 read latency (µs) inside degraded windows — the availability
    /// SLO a fault sweep reports. 0 without faults.
    pub degraded_read_p99_us: f64,
    /// p99 read latency (µs) outside degraded windows. Equals
    /// [`Self::read_p99_us`] without faults.
    pub steady_read_p99_us: f64,
    /// Ops the open-loop schedule offered (0 on the closed-loop path).
    pub offered_ops: u64,
    /// Offered arrival rate over the schedule horizon (ops/s; 0 on the
    /// closed-loop path).
    pub offered_ops_per_s: f64,
    /// Client-acked ops per second over the full run — the goodput an
    /// open-loop sweep compares against the offered rate.
    pub goodput_ops_per_s: f64,
    /// Mean admission-queue delay (µs; open loop only, 0 otherwise).
    pub queue_delay_mean_us: f64,
    /// p99 admission-queue delay (µs; open loop only). This is the
    /// queueing-collapse signature: it explodes past the saturation knee.
    pub queue_delay_p99_us: f64,
    /// Peak total admission-queue depth across all clients.
    pub peak_queue_depth: u64,
    /// Whether the offered load exceeded sustainable throughput: goodput
    /// fell below [`SATURATION_GOODPUT_RATIO`] of the offered rate *and*
    /// the admission queues backed up past one full window of the peak
    /// active set.
    pub saturated: bool,
    /// Peak number of concurrently *active* open-loop clients — clients
    /// holding at least one op outstanding or admitted. Tracks the window
    /// math (offered rate × service time), not the configured population:
    /// a million-client run at a fixed offered rate peaks at the same
    /// active set as a thousand-client one. 0 on the closed-loop path.
    pub active_clients_peak: u64,
    /// Resident bytes of per-client open-loop runtime state at peak,
    /// counted from measured peaks × exact struct sizes (sparse window
    /// maps plus queued-op content). O(active clients), not
    /// O(population). 0 on the closed-loop path.
    pub client_state_bytes: u64,
    /// Resident bytes held by the workload source itself: lazy generator
    /// state scales with *distinct touched* clients; a pre-materialised
    /// timed stream holds all its ops. 0 on the closed-loop path.
    pub workload_state_bytes: u64,
    /// Highest per-disk fill fraction (block bytes placed / capacity) —
    /// the disk that would run out of space first. On a heterogeneous
    /// fleet this is what capacity-weighted placement exists to flatten.
    pub disk_fill_max: f64,
    /// Lowest per-disk fill fraction.
    pub disk_fill_min: f64,
    /// Bytes physically written to the most-worn disk (the fleet wear
    /// high-water; see [`simdisk::DeviceStats::wear_bytes`]).
    pub wear_max_bytes: u64,
    /// Most-worn disk's wear over the fleet mean (1.0 = perfectly even;
    /// 0.0 when nothing was written).
    pub wear_spread: f64,
    /// Distinct stripe co-location sets the run left behind
    /// ([`crate::layout::Layout::distinct_copysets`]) — bounded by the
    /// budget under a [`crate::placement::Copyset`] policy (modulo rebuild
    /// relocations), stripe-count-scale under rotation placements.
    pub copysets_used: usize,
    /// Media GiB scanned by the scrub policy (0 when no plan armed).
    pub scrub_gib: f64,
    /// Latent sector errors injected across the fleet.
    pub lse_injected: u64,
    /// Injected errors a scrub pass detected.
    pub lse_found: u64,
    /// Detected errors whose covering block was rebuilt from redundancy
    /// — `lse_injected - lse_repaired` is the exposure a correlated
    /// failure would turn into data loss.
    pub lse_repaired: u64,
    /// GiB migrated by wear-leveling rebalance plus tier demotion.
    pub maint_migrated_gib: f64,
    /// Live-fleet wear spread (max/mean) at the rebalancer's first
    /// non-zero sample — compare against the end-of-run
    /// [`RunResult::wear_spread`] for the before/after story.
    pub wear_spread_before: f64,
    /// Foreground update p99 (µs) inside maintenance-busy windows —
    /// the latency cost attribution of "free" background hygiene.
    pub maint_busy_p99_us: f64,
    /// Foreground update p99 (µs) outside maintenance-busy windows.
    pub maint_idle_p99_us: f64,
    /// Per-stage latency attribution: one row per `(op class, stage)`
    /// observed while tracing was armed, in canonical (class, stage id)
    /// order. Empty when [`ReplayConfig::trace`] is off. The rollup sees
    /// **every** op regardless of the trace sampling/filter knobs, so
    /// `sum(total_us)` over Update rows divided by their span count
    /// reconciles with `latency_mean_us`. (The rollup counts per *slice*,
    /// like the latency histogram — a rare multi-block op contributes one
    /// traced completion per 4 MiB slice, while `completed_updates`
    /// counts the client op once.)
    pub stage_breakdown: Vec<StageRow>,
    /// Spans discarded because the trace ring filled
    /// ([`TraceConfig::capacity`]). Sampling and filter exclusions are
    /// *not* drops — this is honest data loss only.
    pub trace_dropped_spans: u64,
    /// Simulation events executed by the event loop.
    pub sim_events: u64,
    /// Wall-clock milliseconds the replay took (build → harvest).
    /// Nondeterministic, along with [`Self::events_per_sec`] and
    /// [`Self::setup_ms`] — equality tests must exclude all three.
    pub wall_ms: f64,
    /// Engine speed: simulation events per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock milliseconds spent building the cluster and installing
    /// the workload, before the first event ran. The scale sweep's
    /// setup-cost axis. Nondeterministic like [`Self::wall_ms`].
    pub setup_ms: f64,
}

fn client_next(sim: &mut Sim<Cluster>, cl: &mut Cluster, client: u64) {
    issue_next_op(sim, cl, client, sim.now());
}

/// Pops and issues `client`'s next op (see [`issue_op`]).
fn issue_next_op(sim: &mut Sim<Cluster>, cl: &mut Cluster, client: u64, issued_at: SimTime) {
    let Some(queue) = cl.client_ops.get_mut(&client) else {
        return; // this client is done
    };
    let Some(op) = queue.pop_front() else {
        return; // this client is done
    };
    if queue.is_empty() {
        // Sparse invariant: drained queues leave the map, so resident
        // op-content state never exceeds the concurrently active set.
        cl.client_ops.remove(&client);
    }
    issue_op(sim, cl, client, op, issued_at);
}

/// Issues one of `client`'s ops. `issued_at` anchors the client-observed
/// latency: on the closed loop it is always `sim.now()`; on the open loop
/// it is the op's *arrival* time, so admission-queue delay lands in the
/// latency the client sees.
fn issue_op(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    client: u64,
    (offset, len, kind): (u64, u32, OpKind),
    issued_at: SimTime,
) {
    let now = sim.now();
    // Multi-block ops are issued as their first slice only for latency
    // accounting; the remaining slices are issued concurrently and complete
    // in the background (rare: ops cross 4 MiB boundaries). `ctx.drive`
    // marks the driving slice, so a background slice never advances the
    // closed loop — even when its dispatch is deferred by a park or a
    // degraded-path rebuild.
    for (i, slice) in cl.layout.slices(client as u32, offset, len).enumerate() {
        let mut ctx = UpdateCtx::new(client, slice, now);
        ctx.issued_at = issued_at;
        ctx.drive = i == 0;
        // Background slices are counted once per op: the completion-side
        // increment is cancelled here at issue. Wrapping because a parked
        // or degraded-deferred dispatch completes *later* — the transient
        // dip below zero corrects itself at that completion.
        match kind {
            OpKind::Update => {
                methods::begin_update(sim, cl, ctx);
                if i > 0 {
                    cl.metrics.completed_updates = cl.metrics.completed_updates.wrapping_sub(1);
                }
            }
            OpKind::Write => {
                methods::begin_write(sim, cl, ctx);
                if i > 0 {
                    cl.metrics.completed_writes = cl.metrics.completed_writes.wrapping_sub(1);
                }
            }
            OpKind::Read => {
                methods::begin_read(sim, cl, ctx);
                if i > 0 {
                    cl.metrics.completed_reads = cl.metrics.completed_reads.wrapping_sub(1);
                }
            }
        }
    }
}

/// One op's delivery on the open loop: account it as offered, pull the
/// *next* op from the source (scheduling its delivery — the calendar holds
/// at most one future arrival at a time), then admit this op — issue
/// immediately while the client's outstanding window has room, otherwise
/// wait in the admission queue (the wait is the measured queue delay).
/// Window state is materialised here, on a client's first arrival.
fn open_loop_deliver(sim: &mut Sim<Cluster>, cl: &mut Cluster, _u: u64) {
    let now = sim.now();
    let ol = cl.open_loop.as_mut().expect("open-loop replay state");
    let t = ol
        .pending
        .take()
        .expect("delivery event fired without a pending op");
    ol.offered += 1;
    ol.horizon = ol.horizon.max(t.op.at_ns);
    if let Some(next) = ol.source.next_op() {
        let at = next.op.at_ns;
        ol.pending = Some(next);
        sim.schedule_call_u_at(at, open_loop_deliver, 0);
    }
    let client = t.client;
    if !ol.active.contains_key(&client) {
        ol.active_clients.inc();
    }
    let window = ol.window;
    let cw = ol.active.entry(client).or_default();
    let op = (t.op.offset, t.op.len, t.op.kind);
    // Window room implies an empty admission queue (admissions only grow
    // while the window is full, and completions drain them first), so an
    // op admitted on arrival is issued directly, without passing through
    // the client's op queue.
    if cw.outstanding < window {
        cw.outstanding += 1;
        ol.queue_delay.record(0);
        debug_assert!(
            !cl.client_ops.contains_key(&client),
            "client {client} admitted an arrival past its queued ops"
        );
        issue_op(sim, cl, client, op, now);
    } else {
        cw.admission.push_back(now);
        ol.queue_depth.inc();
        cl.client_ops.entry(client).or_default().push_back(op);
    }
}

/// Completion driver on the open loop: admit the client's oldest queued
/// arrival (charging its queue delay), or shrink the outstanding count
/// when the queue is empty — retiring the client's window state entirely
/// once it drains, which is what keeps the runtime O(active clients).
fn open_loop_next(sim: &mut Sim<Cluster>, cl: &mut Cluster, client: u64) {
    let now = sim.now();
    let ol = cl.open_loop.as_mut().expect("open-loop replay state");
    let Some(cw) = ol.active.get_mut(&client) else {
        return; // already retired (defensive: mirrors the old saturating_sub)
    };
    match cw.admission.pop_front() {
        Some(arrived) => {
            ol.queue_depth.dec();
            ol.queue_delay.record(now.saturating_sub(arrived));
            issue_next_op(sim, cl, client, arrived);
        }
        None => {
            cw.outstanding = cw.outstanding.saturating_sub(1);
            if cw.outstanding == 0 {
                ol.active.remove(&client);
                ol.active_clients.dec();
            }
        }
    }
}

/// Installs an open-loop op source into the cluster: the completion
/// driver, the sparse window/queue state, and the *first* delivery event.
/// Deliveries then self-schedule (pull one ahead), so neither the event
/// calendar nor the cluster ever materialises the schedule — resident
/// state is O(concurrently active clients) regardless of population or
/// schedule length.
fn install_source(sim: &mut Sim<Cluster>, cl: &mut Cluster, source: OpSource, window: usize) {
    cl.client_ops.clear();
    cl.client_driver = Some(open_loop_next);
    let mut ol = OpenLoopRt::new(cl.cfg.clients, window, source);
    if let Some(first) = ol.source.next_op() {
        let at = first.op.at_ns;
        ol.pending = Some(first);
        sim.schedule_call_u_at(at, open_loop_deliver, 0);
    }
    cl.open_loop = Some(ol);
}

/// Runs only the update phase: builds the cluster, offers every client's
/// trace (closed-loop by default, open-loop when
/// [`ReplayConfig::workload`] says so) to completion, and returns the
/// live `(sim, cluster)` pair *without draining logs* — the starting
/// state for recovery experiments (Fig. 8b fails a node exactly here).
pub fn run_update_phase(rcfg: &ReplayConfig) -> (Sim<Cluster>, Cluster) {
    let setup_start = std::time::Instant::now();
    let mut cl = Cluster::new(rcfg.cluster.clone());
    let mut sim: Sim<Cluster> = Sim::new();

    match &rcfg.workload {
        Workload::ClosedLoop => {
            // Generate each client's op stream up front (deterministic).
            // The closed loop is inherently O(population): every client
            // issues continuously, so there is no sparse win to chase.
            for c in 0..rcfg.cluster.clients {
                let params = WorkloadParams::for_family(rcfg.family, rcfg.volume_bytes);
                let mut gen = WorkloadGen::new(params, rcfg.seed + c);
                let ops: VecDeque<(u64, u32, OpKind)> = gen
                    .take_ops(rcfg.ops_per_client)
                    .into_iter()
                    .map(|op| (op.offset, op.len, op.kind))
                    .collect();
                cl.client_ops.insert(c, ops);
            }
            cl.client_driver = Some(client_next);
        }
        Workload::Open(spec) => {
            // Same per-client content seeding as the closed loop, so an
            // unsaturated open-loop run replays statistically the same ops
            // — but pulled lazily: nothing is materialised up front.
            let params = WorkloadParams::for_family(rcfg.family, rcfg.volume_bytes);
            let total = rcfg
                .total_ops
                .unwrap_or(rcfg.cluster.clients * rcfg.ops_per_client as u64);
            let source = spec.source(&params, rcfg.cluster.clients, total, rcfg.seed);
            install_source(
                &mut sim,
                &mut cl,
                OpSource::Lazy(Box::new(source)),
                spec.window,
            );
        }
        Workload::Timed { stream, window } => {
            let source = OpSource::Stream {
                ops: stream.ops().to_vec(),
                next: 0,
            };
            install_source(&mut sim, &mut cl, source, *window);
        }
    }

    // Arm the fault timeline. With the (default) empty plan nothing is
    // scheduled and no state changes: the replay is byte-for-byte the
    // pre-fault-timeline replay.
    if !rcfg.faults.is_empty() {
        cl.faults.recovery_delay = rcfg.faults.recovery_delay_ns;
        cl.faults.repair_bandwidth = rcfg.faults.repair_bandwidth;
        // Timestamped latencies enable degraded-window vs steady quantiles.
        cl.metrics.latency_samples = Some(SampleLog::new());
        cl.metrics.read_latency_samples = Some(SampleLog::new());
        for ev in &rcfg.faults.events {
            let scope = ev.scope;
            sim.schedule_at(ev.at_ns, move |sim, cl: &mut Cluster| {
                recovery::inject_fault(sim, cl, scope);
            });
        }
    }

    // Arm background maintenance. Same contract as the fault timeline:
    // an empty plan schedules nothing and touches no state.
    if !rcfg.maintenance.is_empty() {
        // Busy-window vs idle-window quantiles need timestamped samples
        // (the fault plan may already have attached them).
        if cl.metrics.latency_samples.is_none() {
            cl.metrics.latency_samples = Some(SampleLog::new());
        }
        if cl.metrics.read_latency_samples.is_none() {
            cl.metrics.read_latency_samples = Some(SampleLog::new());
        }
        maintenance::arm(&mut sim, &mut cl, &rcfg.maintenance);
    }

    // Arm deterministic tracing. Same contract again: the default (off)
    // config arms nothing, touches no state, and leaves the replay byte
    // for byte identical to an untraced run.
    cl.trace.arm(rcfg.trace);

    // Kick the closed-loop clients with staggered start times. In a fully
    // deterministic simulation, identical service times would otherwise
    // keep all clients in lockstep convoys — synchronized arrival waves
    // that queue behind each other at every hop while the fabric sits idle
    // in between. (Open-loop arrivals carry their own schedule.)
    if rcfg.workload.is_closed_loop() {
        fn kick(sim: &mut Sim<Cluster>, cl: &mut Cluster, client: u64) {
            client_next(sim, cl, client);
        }
        for c in 0..rcfg.cluster.clients {
            let stagger = c.wrapping_mul(137) % 4096 * simdes::units::MICROS / 8;
            sim.schedule_call_u_at(sim.now().saturating_add(stagger), kick, c);
        }
    }
    cl.metrics.setup_ms = setup_start.elapsed().as_secs_f64() * 1_000.0;
    sim.run(&mut cl);
    (sim, cl)
}

/// Everything one replay produces: the harvested metrics and, when
/// [`ReplayConfig::trace`] was armed with retention, the trace itself.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The harvested metrics (identical whether or not tracing was armed).
    pub result: RunResult,
    /// The retained trace; `None` unless tracing was enabled.
    pub trace: Option<Trace>,
}

/// The replay entry point: [`Replay::run`] is the one way to run a
/// replay, returning a [`RunOutcome`] (result *and* optional trace).
#[derive(Debug, Clone, Copy)]
pub struct Replay;

impl Replay {
    /// Runs one full replay — build the cluster, offer the workload,
    /// drain logs, verify the consistency oracle, harvest metrics and the
    /// optional trace.
    ///
    /// ```
    /// use ecfs::prelude::*;
    ///
    /// let cluster = ClusterConfig::builder()
    ///     .code(CodeParams::new(4, 2).unwrap())
    ///     .method(Arc::new(Fo))
    ///     .nodes(6)
    ///     .clients(2)
    ///     .build()
    ///     .unwrap();
    /// let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
    ///     .ops_per_client(40)
    ///     .build()
    ///     .unwrap();
    /// let out = Replay::run(&rcfg);
    /// assert_eq!(out.result.oracle_violations, 0);
    /// assert!(out.trace.is_none()); // tracing was not armed
    /// ```
    pub fn run(rcfg: &ReplayConfig) -> RunOutcome {
        run_replay(rcfg)
    }
}

fn run_replay(rcfg: &ReplayConfig) -> RunOutcome {
    let wall_start = std::time::Instant::now();
    let (mut sim, mut cl) = run_update_phase(rcfg);
    let run_end = cl.metrics.last_completion;
    let duration_s = simdes::units::as_secs_f64(run_end);

    // Drain all logs (real-time for TSUE means little remains; deferred
    // methods pay here).
    let drain_start = sim.now();
    methods::drain(&mut sim, &mut cl);
    sim.run(&mut cl);
    let mut guard = 0;
    while methods::pending_log_bytes(&cl) > 0 {
        methods::drain(&mut sim, &mut cl);
        sim.run(&mut cl);
        guard += 1;
        assert!(guard < 1000, "drain did not converge");
    }
    let drain_s = simdes::units::as_secs_f64(sim.now().saturating_sub(drain_start));

    let violations = cl.oracle.violations(&cl.layout);

    // Availability harvest: degraded windows run from each injected fault
    // to its repair completion (or the end of the simulation when repair
    // never finished).
    let sim_end = sim.now();
    let windows = cl.faults.windows(sim_end);
    let (degraded_p99_us, steady_p99_us) = match &cl.metrics.latency_samples {
        Some(log) => {
            let (inside, outside) = log.split(&windows);
            (
                inside.quantile(0.99) as f64 / 1_000.0,
                outside.quantile(0.99) as f64 / 1_000.0,
            )
        }
        None => (
            0.0,
            cl.metrics.update_latency.quantile(0.99) as f64 / 1_000.0,
        ),
    };
    let (degraded_read_p99_us, steady_read_p99_us) = match &cl.metrics.read_latency_samples {
        Some(log) => {
            let (inside, outside) = log.split(&windows);
            (
                inside.quantile(0.99) as f64 / 1_000.0,
                outside.quantile(0.99) as f64 / 1_000.0,
            )
        }
        None => (0.0, cl.metrics.read_latency.quantile(0.99) as f64 / 1_000.0),
    };
    let mttr_s = cl.faults.mttr_s(sim_end);

    let m = &cl.metrics;
    let update_iops = if duration_s > 0.0 {
        m.completed_updates as f64 / duration_s
    } else {
        0.0
    };

    // Offered-vs-acked accounting: goodput is what clients actually got
    // acknowledged per second of run; on the open loop it is compared
    // against the schedule's offered rate to flag saturation.
    let acked = m.completed_updates + m.completed_reads + m.completed_writes;
    let goodput_ops_per_s = if duration_s > 0.0 {
        acked as f64 / duration_s
    } else {
        0.0
    };
    let (
        offered_ops,
        offered_ops_per_s,
        queue_delay_mean_us,
        queue_delay_p99_us,
        peak_queue_depth,
        backlogged,
        active_clients_peak,
        client_state_bytes,
        workload_state_bytes,
    ) = match &cl.open_loop {
        Some(ol) => {
            let horizon_s = simdes::units::as_secs_f64(ol.horizon);
            let rate = if horizon_s > 0.0 {
                ol.offered as f64 / horizon_s
            } else {
                0.0
            };
            let active_peak = ol.active_clients.peak();
            // "Backed up": at some point the admission queues held at
            // least one full window of the peak active set — more waiting
            // than the clients actually competing were even allowed to
            // have in flight. Keyed to the *active* set, not the
            // population, so the signature survives million-client id
            // spaces where most clients never arrive.
            let backlogged = ol.queue_depth.peak() >= (ol.window as u64) * active_peak.max(1);
            // Runtime client state at peak, from measured peaks × exact
            // struct sizes: every active client holds one window entry
            // and one op-queue entry; every queued arrival holds one
            // admission timestamp and one op-content tuple.
            let per_client = (std::mem::size_of::<u64>() * 2
                + std::mem::size_of::<crate::cluster::ClientWindow>()
                + std::mem::size_of::<VecDeque<(u64, u32, OpKind)>>())
                as u64;
            let per_queued =
                (std::mem::size_of::<SimTime>() + std::mem::size_of::<(u64, u32, OpKind)>()) as u64;
            (
                ol.offered,
                rate,
                ol.queue_delay.mean() / 1_000.0,
                ol.queue_delay.quantile(0.99) as f64 / 1_000.0,
                ol.queue_depth.peak(),
                backlogged,
                active_peak,
                active_peak * per_client + ol.queue_depth.peak() * per_queued,
                ol.source.state_bytes(),
            )
        }
        None => (0, 0.0, 0.0, 0.0, 0, false, 0, 0, 0),
    };
    // Both conditions guard against finite-run artefacts: a short stream's
    // completion tail depresses the goodput ratio without any queueing, and
    // a transient queue blip is not a collapse without a goodput shortfall.
    let saturated = offered_ops > 0
        && goodput_ops_per_s < SATURATION_GOODPUT_RATIO * offered_ops_per_s
        && backlogged;

    // Fleet-resource harvest: per-disk fill and wear, after all rebuilds.
    let mut disk_fill_max = 0.0f64;
    let mut disk_fill_min = f64::INFINITY;
    let mut wear_max_bytes = 0u64;
    let mut wear_total = 0u64;
    for n in &cl.nodes {
        let fill = cl.layout.allocated(n.id) as f64 / n.disk.capacity().max(1) as f64;
        disk_fill_max = disk_fill_max.max(fill);
        disk_fill_min = disk_fill_min.min(fill);
        let wear = n.disk.wear_bytes();
        wear_max_bytes = wear_max_bytes.max(wear);
        wear_total += wear;
    }
    let wear_mean = wear_total as f64 / cl.nodes.len().max(1) as f64;
    let wear_spread = if wear_mean > 0.0 {
        wear_max_bytes as f64 / wear_mean
    } else {
        0.0
    };
    let copysets_used = cl.layout.distinct_copysets();

    // Maintenance harvest. LSE ground truth comes from the per-device
    // oracles (not the policy counters), so a scrub that claims a repair
    // it never booked would show up as a mismatch here.
    let mut lse_injected = 0u64;
    let mut lse_detected = 0u64;
    let mut lse_repaired = 0u64;
    for n in &cl.nodes {
        if let Some(model) = n.disk.lse() {
            lse_injected += model.injected() as u64;
            lse_detected += model.detected() as u64;
            lse_repaired += model.repaired() as u64;
        }
    }
    let (maint_busy_p99_us, maint_idle_p99_us) =
        match (&cl.metrics.latency_samples, cl.maint.active) {
            (Some(log), true) => {
                let (busy, idle) = log.split(&cl.maint.windows);
                (
                    busy.quantile(0.99) as f64 / 1_000.0,
                    idle.quantile(0.99) as f64 / 1_000.0,
                )
            }
            _ => (0.0, 0.0),
        };
    const GIB: f64 = (1u64 << 30) as f64;
    // Harvest tracing after the drain so recycle/maintenance child spans
    // emitted while draining are included. `finish` resets the state.
    let (stage_breakdown, trace_dropped_spans, trace) = cl.trace.finish(rcfg.cluster.method.name());
    let sim_events = sim.events_executed();
    let wall_ms = wall_start.elapsed().as_secs_f64() * 1_000.0;
    let events_per_sec = if wall_ms > 0.0 {
        sim_events as f64 / (wall_ms / 1_000.0)
    } else {
        0.0
    };
    let result = RunResult {
        method: rcfg.cluster.method.name().to_string(),
        completed_updates: m.completed_updates,
        completed_reads: m.completed_reads,
        completed_writes: m.completed_writes,
        duration_s,
        update_iops,
        latency_mean_us: m.update_latency.mean() / 1_000.0,
        latency_p99_us: m.update_latency.quantile(0.99) as f64 / 1_000.0,
        disk: cl.disk_stats(),
        net_gib: cl.net.traffic().total_gib(),
        net_cross_rack_gib: cl.net.traffic().cross_rack_gib(),
        net_msgs: cl.net.traffic().total_messages(),
        erases: cl.total_erases(),
        series: m.completions.rates_per_sec(),
        log_memory_bytes: log_memory(&cl),
        data_residency: ResidencySummary::from_layer(&m.residency[Layer::Data as usize]),
        delta_residency: ResidencySummary::from_layer(&m.residency[Layer::Delta as usize]),
        parity_residency: ResidencySummary::from_layer(&m.residency[Layer::Parity as usize]),
        stalls: m.stall_waits,
        cache_read_hits: m.cache_read_hits,
        cache_lookups: m.cache_lookups,
        cache_hits: m.cache_hits,
        cache_hit_ratio: if m.cache_lookups > 0 {
            m.cache_hits as f64 / m.cache_lookups as f64
        } else {
            0.0
        },
        staged_bytes: m.staged_bytes,
        coalesced_bytes: m.coalesced_bytes,
        stage_flushes: m.stage_flushes,
        drain_s,
        oracle_violations: violations.len(),
        degraded_reads: m.degraded_reads,
        degraded_bytes_decoded: m.degraded_bytes_decoded,
        failed_ops: m.failed_ops,
        inline_rebuilds: cl.faults.inline_rebuilds,
        repaired_blocks: cl.faults.repaired_blocks,
        repaired_bytes: cl.faults.repaired_bytes,
        data_loss_blocks: cl.faults.data_loss_blocks,
        net_repair_gib: cl.net.traffic().repair_gib(),
        mttr_s,
        degraded_p99_us,
        steady_p99_us,
        read_p99_us: m.read_latency.quantile(0.99) as f64 / 1_000.0,
        degraded_read_p99_us,
        steady_read_p99_us,
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
        scrub_gib: cl.maint.scrub_bytes as f64 / GIB,
        lse_injected,
        lse_found: lse_detected,
        lse_repaired,
        maint_migrated_gib: (cl.maint.migrated_bytes + cl.maint.demoted_bytes) as f64 / GIB,
        wear_spread_before: cl.maint.wear_spread_before,
        maint_busy_p99_us,
        maint_idle_p99_us,
        stage_breakdown,
        trace_dropped_spans,
        sim_events,
        wall_ms,
        events_per_sec,
        setup_ms: cl.metrics.setup_ms,
    };
    RunOutcome { result, trace }
}

fn log_memory(cl: &Cluster) -> u64 {
    cl.nodes.iter().map(|n| n.state.memory_bytes()).sum()
}
