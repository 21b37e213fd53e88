//! Trace replay: closed-loop clients driving the cluster, the open-loop
//! offered-load engine, and the measurement harvest every benchmark
//! consumes.

use std::collections::VecDeque;

use simdes::stats::{Gauge, Histogram, IntervalSet, SampleLog};
use simdes::{Sim, SimTime};

use traces::{OpKind, TraceFamily, WorkloadGen, WorkloadParams};
use tsue::fastmap::FastMap;
use tsue::layers::Layer;
use workload::OpenLoopSpec;

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::fault::FaultPlan;
use crate::maintenance::{self, MaintenancePlan};
use crate::methods::{self, Method, UpdateCtx};
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
    /// outstanding and queues the rest at admission. The schedule is
    /// generated lazily, one arrival ahead of the simulation
    /// ([`OpenLoopSpec::source`]).
    Open(OpenLoopSpec),
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
    /// the closed-loop path.
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
    /// use ecfs::{ClusterConfig, Method, ReplayConfig};
    /// use rscode::CodeParams;
    /// use traces::TraceFamily;
    ///
    /// let cluster = ClusterConfig::ssd_testbed(CodeParams::new(6, 3).unwrap(), Method::Tsue);
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
        self.maintenance.validate()?;
        self.trace.validate().map_err(crate::config::ConfigError)?;
        if let Workload::Open(spec) = &self.workload {
            spec.validate().map_err(crate::config::ConfigError)?;
        }
        // TSUE appends each update slice to one DataLog unit whole, so a
        // unit smaller than the largest slice would panic mid-replay. A
        // slice is at most one block and one op.
        if self.cluster.method == Method::Tsue {
            let block = self.cluster.block_bytes;
            let largest_op = WorkloadParams::for_family(self.family, self.volume_bytes)
                .size_dist
                .iter()
                .map(|&(size, _)| size as u64)
                .max();
            let largest = block.min(largest_op.unwrap_or(0));
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
    ///     Method::Tsue,
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
    ///     Method::Tsue,
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
    ///     Method::Tsue,
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
    ///     Method::Tsue,
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

    /// How load is offered (the closed loop or an open-loop spec).
    ///
    /// ```
    /// use ecfs::prelude::*;
    ///
    /// let cluster = ClusterConfig::ssd_testbed(
    ///     CodeParams::new(6, 3).unwrap(),
    ///     Method::Tsue,
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
    /// Display name of the method under test: its driver's
    /// [`crate::methods::Method::name`]. An armed read cache
    /// ([`ClusterConfig::read_cache_bytes`]) does not change it.
    pub method: String,
    /// Updates acknowledged. The completion counters, [`Self::failed_ops`],
    /// the latency fields and [`Self::series`] count each client op once,
    /// at its last block slice; only [`Self::stage_breakdown`] counts every
    /// slice.
    pub completed_updates: u64,
    /// Reads completed, counted once per client op.
    pub completed_reads: u64,
    /// Fresh writes completed, counted once per client op.
    pub completed_writes: u64,
    /// Simulated seconds from first issue to last client completion.
    pub duration_s: f64,
    /// Aggregate update throughput (client-acked updates per second).
    pub update_iops: f64,
    /// Mean client-observed update latency (µs).
    pub latency_mean_us: f64,
    /// p99 update latency (µs, bucket upper bound, up to 2× the true value).
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
    /// Log memory footprint at end of run (bytes): every node's
    /// [`crate::methods::NodeState::memory_bytes`], plus the pages an
    /// armed read cache ([`crate::cache`]) holds.
    pub log_memory_bytes: u64,
    /// DataLog residency.
    pub data_residency: ResidencySummary,
    /// DeltaLog residency.
    pub delta_residency: ResidencySummary,
    /// ParityLog residency.
    pub parity_residency: ResidencySummary,
    /// Parks on log back-pressure (a slice that parks twice counts twice).
    pub stalls: u64,
    /// Reads served from log caches.
    pub cache_read_hits: u64,
    /// Reads checked against the node-local read cache
    /// ([`crate::cache`]); 0 unless a read cache is armed.
    pub cache_lookups: u64,
    /// Reads served from the node-local read cache (no disk, and the
    /// method's read path not taken).
    pub cache_hits: u64,
    /// [`Self::cache_hits`] over [`Self::cache_lookups`] (0.0 when no
    /// lookups happened).
    pub cache_hit_ratio: f64,
    /// Seconds spent draining logs after the run.
    pub drain_s: f64,
    /// Consistency-oracle violations (must be 0).
    pub oracle_violations: usize,
    /// Reads served by decoding the lost block from `k` survivors.
    pub degraded_reads: u64,
    /// Bytes produced by degraded-read decoding.
    pub degraded_bytes_decoded: u64,
    /// Client ops aborted (EIO) because the stripe of one of their slices
    /// lost more than `m` blocks, counted once per op: an op is either
    /// acked or failed, so on the open loop `offered_ops` equals the
    /// completion counters plus this.
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
    /// p99 update latency (µs, bucket upper bound, up to 2× the true value)
    /// *inside* degraded windows — between a failure and the end of its
    /// repair. 0 without faults.
    pub degraded_p99_us: f64,
    /// p99 update latency (µs, bucket upper bound, up to 2× the true value)
    /// outside degraded windows. Equals [`Self::latency_p99_us`] without
    /// faults.
    pub steady_p99_us: f64,
    /// Mean client-observed read latency (µs), degraded decodes included.
    pub read_mean_us: f64,
    /// p99 client-observed read latency (µs, bucket upper bound, up to 2×
    /// the true value), degraded decodes included.
    pub read_p99_us: f64,
    /// p99 read latency (µs, bucket upper bound, up to 2× the true value)
    /// inside degraded windows — the availability SLO a fault sweep
    /// reports. 0 without faults.
    pub degraded_read_p99_us: f64,
    /// p99 read latency (µs, bucket upper bound, up to 2× the true value)
    /// outside degraded windows. Equals [`Self::read_p99_us`] without
    /// faults.
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
    /// p99 admission-queue delay (µs, bucket upper bound, up to 2× the true
    /// value; open loop only). This is the queueing-collapse signature: it
    /// explodes past the saturation knee.
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
    /// counted from measured peaks × exact struct sizes (the sparse window
    /// map and the queued ops in its admission queues). O(active clients),
    /// not O(population). 0 on the closed-loop path.
    pub client_state_bytes: u64,
    /// Resident bytes of the per-client op generators at peak, counted
    /// from slot capacities, exact struct sizes and each generator's heap.
    /// On the open loop the arrival source holds one per *distinct
    /// touched* client; on the closed loop every client holds one, so it
    /// is O(clients) and independent of the ops per client.
    pub workload_state_bytes: u64,
    /// Highest per-disk fill fraction (block bytes placed / capacity) —
    /// the disk that would run out of space first. On a heterogeneous
    /// fleet this is what capacity-weighted placement exists to flatten.
    pub disk_fill_max: f64,
    /// Lowest per-disk fill fraction.
    pub disk_fill_min: f64,
    /// Bytes physically written to the most-worn disk (the fleet wear
    /// high-water; see [`simdisk::DeviceStats::wear_bytes`]), over every
    /// device, failed ones and spindles included.
    pub wear_max_bytes: u64,
    /// Most-worn disk's wear over the fleet mean (1.0 = perfectly even;
    /// 0.0 when nothing was written), over every device, failed ones and
    /// spindles included.
    pub wear_spread: f64,
    /// Distinct stripe co-location sets the run left behind
    /// ([`crate::layout::Layout::distinct_copysets`]) — bounded by the
    /// budget under a [`crate::Placement::Copyset`] policy (modulo rebuild
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
    /// GiB migrated by the wear-leveling rebalancer.
    pub maint_migrated_gib: f64,
    /// Wear spread (max/mean) at the rebalancer's first non-zero census,
    /// over the devices it levels: the live flash devices on a mixed
    /// fleet, every live device on a uniform one. On a uniform fleet with
    /// no failure it covers the devices [`RunResult::wear_spread`] does,
    /// and the two read as before and after; on a mixed fleet they cover
    /// different devices and are not a before/after pair.
    pub wear_spread_before: f64,
    /// Foreground update p99 (µs, bucket upper bound, up to 2× the true
    /// value) inside maintenance-busy windows — the latency cost
    /// attribution of "free" background hygiene.
    pub maint_busy_p99_us: f64,
    /// Foreground update p99 (µs, bucket upper bound, up to 2× the true
    /// value) outside maintenance-busy windows.
    pub maint_idle_p99_us: f64,
    /// Per-stage latency attribution: one row per `(op class, stage)`
    /// observed while tracing was armed, in canonical (class, stage id)
    /// order. Empty when [`ReplayConfig::trace`] is off. The rollup sees
    /// **every** op regardless of the trace sampling/filter knobs, one
    /// record per block slice closed with that slice's latency, so
    /// `sum(total_us)` over Update rows divided by their span count equals
    /// `latency_mean_us` unless ops span blocks (each counts once there, at
    /// its latest slice).
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
    /// the workload's generators, before the first event ran. Both loops
    /// draw each op when it is issued or delivered, so op generation is
    /// in the run, not here. The scale sweep's setup-cost axis.
    /// Nondeterministic like [`Self::wall_ms`].
    pub setup_ms: f64,
}

/// The clients a replay installs on [`Cluster::clients`]. Only this module
/// knows how they are driven: every op's completion schedules one
/// [`client_done`].
pub(crate) enum ClientLoop {
    /// Each client issues its next op the instant the previous completes.
    Closed(ClosedLoopRt),
    /// Ops arrive on a schedule and wait in bounded per-client windows.
    /// Boxed: the open loop's state is ≈ 1.2 KB, the closed loop's a few
    /// words.
    Open(Box<OpenLoopRt>),
}

/// Closed-loop clients: per client id, the generator that yields its ops
/// and how many it has left to issue. A client pulls each op as it issues
/// it and drops its generator after its last, so the op supply holds
/// O(clients) bytes however long the run.
pub(crate) struct ClosedLoopRt {
    clients: Vec<Option<(WorkloadGen, usize)>>,
    state_bytes: u64,
}

impl ClosedLoopRt {
    /// `clients` clients of `ops_per_client` ops each; client `c` draws
    /// the stream of `WorkloadGen::new(params, seed + c)`.
    fn new(params: WorkloadParams, clients: u64, ops_per_client: usize, seed: u64) -> Self {
        let template = WorkloadGen::new(params, seed);
        let clients: Vec<_> = (0..clients)
            .map(|c| {
                (ops_per_client > 0)
                    .then(|| (template.reseeded(seed.wrapping_add(c)), ops_per_client))
            })
            .collect();
        // Counted as `workload::ArrivalSource::state_bytes` counts its
        // generators: slots × entry size plus each generator's heap. Taken
        // here, where it peaks — clients only ever drop their generators.
        let heap: usize = clients.iter().flatten().map(|(g, _)| g.heap_bytes()).sum();
        let slots = clients.capacity() * size_of::<Option<(WorkloadGen, usize)>>();
        ClosedLoopRt {
            clients,
            state_bytes: (slots + heap) as u64,
        }
    }

    /// `client`'s next op as `(offset, len, kind)`, or `None` once it has
    /// issued all of them.
    fn next_op(&mut self, client: u64) -> Option<(u64, u32, OpKind)> {
        let slot = self.clients.get_mut(client as usize)?;
        let (gen, left) = slot.as_mut()?;
        let op = gen.next().expect("generator is infinite");
        *left -= 1;
        if *left == 0 {
            *slot = None;
        }
        Some((op.offset, op.len, op.kind))
    }
}

/// Open-loop window state for one *active* client: a client with at least
/// one op outstanding or admitted. Inactive clients hold no state at all.
#[derive(Default)]
struct ClientWindow {
    /// Ops currently outstanding (bounded by the window).
    outstanding: usize,
    /// Admitted-but-not-yet-issued ops, oldest first: arrival time and
    /// `(offset, len, kind)`.
    admission: VecDeque<(SimTime, (u64, u32, OpKind))>,
}

/// Open-loop clients: the bounded per-client outstanding-op windows, the
/// admission queues behind them, and the offered-load accounting the
/// saturation metrics are harvested from.
///
/// State is **sparse**: windows are keyed by client id, materialised on a
/// client's first arrival and retired when its window drains, so resident
/// cost scales with the number of *concurrently active* clients — a
/// million-client population at a fixed offered rate costs the same as a
/// thousand-client one.
pub(crate) struct OpenLoopRt {
    /// Maximum ops a client keeps outstanding.
    window: usize,
    /// Window state of currently active clients, keyed by client id.
    active: FastMap<u64, ClientWindow>,
    /// Concurrently active clients (current + peak).
    active_clients: Gauge,
    /// Admission-queue delay per op (0 for ops issued on arrival).
    queue_delay: Histogram,
    /// Total ops waiting in admission queues (current + peak).
    queue_depth: Gauge,
    /// Ops offered so far (accumulated as arrivals are delivered).
    offered: u64,
    /// Arrival time of the latest offered op (the offered-rate horizon).
    horizon: SimTime,
    /// The remaining arrival schedule, pulled one op ahead.
    source: workload::ArrivalSource,
    /// The next op, pulled from the source but not yet delivered (its
    /// delivery event is on the calendar).
    pending: Option<workload::TimedOp>,
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
    // An op that crosses block boundaries is issued as all its slices at
    // once, joined so that it completes once, at its last slice, even when
    // a slice's dispatch is deferred by a park or a degraded-path rebuild.
    let slices = cl.layout.slices(client as u32, offset, len);
    let join = match slices.count() {
        1 => None,
        n => Some(cl.joins.open(n as u32)),
    };
    for slice in slices {
        let mut ctx = UpdateCtx::new(client, slice, now);
        ctx.issued_at = issued_at;
        ctx.kind = kind;
        ctx.join = join;
        methods::begin(sim, cl, ctx);
    }
}

/// An op's completion, scheduled by the cluster's `finish*` paths at its
/// last slice. On the closed loop the client pulls its next op from its
/// generator and issues it now. On the open loop it admits its oldest
/// queued arrival (charging its queue delay), or shrinks its outstanding
/// count when the queue is empty — retiring the client's window state once
/// it drains, which is what keeps the runtime O(active clients).
pub(crate) fn client_done(sim: &mut Sim<Cluster>, cl: &mut Cluster, client: u64) {
    let now = sim.now();
    match cl
        .clients
        .as_mut()
        .expect("only installed clients are driven")
    {
        ClientLoop::Closed(rt) => {
            if let Some(op) = rt.next_op(client) {
                issue_op(sim, cl, client, op, now);
            }
        }
        ClientLoop::Open(ol) => {
            let cw = ol
                .active
                .get_mut(&client)
                .expect("a completion finds its client's window");
            match cw.admission.pop_front() {
                Some((arrived, op)) => {
                    ol.queue_depth.dec();
                    ol.queue_delay.record(now - arrived);
                    issue_op(sim, cl, client, op, arrived);
                }
                None => {
                    cw.outstanding -= 1;
                    if cw.outstanding == 0 {
                        ol.active.remove(&client);
                        ol.active_clients.dec();
                    }
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
    let Some(ClientLoop::Open(ol)) = cl.clients.as_mut() else {
        unreachable!("deliveries are scheduled only on the open loop");
    };
    let t = ol
        .pending
        .take()
        .expect("delivery event fired without a pending op");
    ol.offered += 1;
    ol.horizon = ol.horizon.max(t.op.at_ns);
    if let Some(next) = ol.source.next() {
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
    // op admitted on arrival is issued directly.
    if cw.outstanding < window {
        cw.outstanding += 1;
        ol.queue_delay.record(0);
        issue_op(sim, cl, client, op, now);
    } else {
        cw.admission.push_back((now, op));
        ol.queue_depth.inc();
    }
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

    let params = WorkloadParams::for_family(rcfg.family, rcfg.volume_bytes);
    cl.clients = Some(match &rcfg.workload {
        // Every client issues continuously, so each holds its own
        // generator (O(clients) state), and pulls an op only when it
        // issues it: nothing is O(clients × ops).
        Workload::ClosedLoop => ClientLoop::Closed(ClosedLoopRt::new(
            params,
            rcfg.cluster.clients,
            rcfg.ops_per_client,
            rcfg.seed,
        )),
        Workload::Open(spec) => {
            // Same per-client content seeding as the closed loop, so an
            // unsaturated open-loop run replays statistically the same ops,
            // pulled just as lazily: nothing is materialised up front. Only
            // the first delivery is scheduled here; each delivery pulls
            // and schedules the next, so neither the event calendar nor
            // the cluster ever holds the schedule, and resident state is
            // O(concurrently active clients) regardless of population or
            // schedule length.
            let total = rcfg
                .total_ops
                .unwrap_or(rcfg.cluster.clients * rcfg.ops_per_client as u64);
            let mut source = spec.source(&params, rcfg.cluster.clients, total, rcfg.seed);
            let pending = source.next();
            if let Some(first) = &pending {
                sim.schedule_call_u_at(first.op.at_ns, open_loop_deliver, 0);
            }
            ClientLoop::Open(Box::new(OpenLoopRt {
                window: spec.window,
                active: FastMap::default(),
                active_clients: Gauge::new(),
                queue_delay: Histogram::new(),
                queue_depth: Gauge::new(),
                offered: 0,
                horizon: 0,
                source,
                pending,
            }))
        }
    });

    // Timestamped latencies split the p99s into degraded-window vs steady
    // and maintenance-busy vs idle quantiles.
    if !rcfg.faults.is_empty() || !rcfg.maintenance.is_empty() {
        cl.metrics.latency_samples = Some(SampleLog::new());
        cl.metrics.read_latency_samples = Some(SampleLog::new());
    }

    // Arm the fault timeline. With the (default) empty plan nothing is
    // scheduled and no state changes: the replay is byte-for-byte the
    // pre-fault-timeline replay.
    if !rcfg.faults.is_empty() {
        cl.faults.recovery_delay = rcfg.faults.recovery_delay_ns;
        cl.faults.repair_bandwidth = rcfg.faults.repair_bandwidth;
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
        for c in 0..rcfg.cluster.clients {
            let stagger = c.wrapping_mul(137) % 4096 * simdes::units::MICROS / 8;
            sim.schedule_call_u_at(sim.now().saturating_add(stagger), client_done, c);
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
    ///     .method(Method::Fo)
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
        let wall_start = std::time::Instant::now();
        let (mut sim, mut cl) = run_update_phase(rcfg);
        let run_end = cl.metrics.last_completion;
        let duration_s = simdes::units::as_secs_f64(run_end);

        // Drain all logs (real-time for TSUE means little remains; deferred
        // methods pay here).
        let drain_start = sim.now();
        methods::drain_all(&mut sim, &mut cl);
        let drain_s = simdes::units::as_secs_f64(sim.now().saturating_sub(drain_start));

        let violations = cl.oracle.violations(&cl.layout);

        // Availability harvest: degraded windows run from each injected fault
        // to its repair completion (or the end of the simulation when repair
        // never finished).
        let sim_end = sim.now();
        let windows = cl.faults.windows(sim_end);
        let (degraded_p99_us, steady_p99_us) = match &cl.metrics.latency_samples {
            Some(log) => p99_split_us(log, &windows),
            None => (
                0.0,
                cl.metrics.update_latency.quantile(0.99) as f64 / 1_000.0,
            ),
        };
        let (degraded_read_p99_us, steady_read_p99_us) = match &cl.metrics.read_latency_samples {
            Some(log) => p99_split_us(log, &windows),
            None => (0.0, cl.metrics.read_latency.quantile(0.99) as f64 / 1_000.0),
        };
        let mttr_s = cl.faults.mttr_s(sim_end);

        let m = &cl.metrics;
        let disk = cl.disk_stats();
        let update_iops = ratio(m.completed_updates as f64, duration_s);

        // Offered-vs-acked accounting: goodput is what clients actually got
        // acknowledged per second of run; on the open loop it is compared
        // against the schedule's offered rate to flag saturation.
        let acked = m.completed_updates + m.completed_reads + m.completed_writes;
        let goodput_ops_per_s = ratio(acked as f64, duration_s);
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
        ) = match &cl.clients {
            Some(ClientLoop::Open(ol)) => {
                let horizon_s = simdes::units::as_secs_f64(ol.horizon);
                let rate = ratio(ol.offered as f64, horizon_s);
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
                // (key and window); every queued arrival holds one admission
                // entry (arrival time and op content).
                let per_client = (size_of::<u64>() + size_of::<ClientWindow>()) as u64;
                let per_queued = size_of::<(SimTime, (u64, u32, OpKind))>() as u64;
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
            Some(ClientLoop::Closed(rt)) => (0, 0.0, 0.0, 0.0, 0, false, 0, 0, rt.state_bytes),
            None => unreachable!("run_update_phase installs the clients"),
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
        let wear_spread = ratio(wear_max_bytes as f64, wear_mean);
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
                (Some(log), true) => p99_split_us(log, &cl.maint.windows),
                _ => (0.0, 0.0),
            };
        const GIB: f64 = (1u64 << 30) as f64;
        // Harvest tracing after the drain so recycle/maintenance child spans
        // emitted while draining are included. `finish` resets the state.
        let (stage_breakdown, trace_dropped_spans, trace) =
            cl.trace.finish(rcfg.cluster.method.name());
        let sim_events = sim.events_executed();
        let wall_ms = wall_start.elapsed().as_secs_f64() * 1_000.0;
        let events_per_sec = ratio(sim_events as f64, wall_ms / 1_000.0);
        let result = RunResult {
            method: rcfg.cluster.method.name().to_string(),
            completed_updates: m.completed_updates,
            completed_reads: m.completed_reads,
            completed_writes: m.completed_writes,
            duration_s,
            update_iops,
            latency_mean_us: m.update_latency.mean() / 1_000.0,
            latency_p99_us: m.update_latency.quantile(0.99) as f64 / 1_000.0,
            erases: disk.erases,
            disk,
            net_gib: cl.net.traffic().total_gib(),
            net_cross_rack_gib: cl.net.traffic().cross_rack_gib(),
            net_msgs: cl.net.traffic().total_messages(),
            series: m.completions.rates_per_sec(),
            log_memory_bytes: log_memory(&cl),
            data_residency: ResidencySummary::from_layer(&m.residency[Layer::Data as usize]),
            delta_residency: ResidencySummary::from_layer(&m.residency[Layer::Delta as usize]),
            parity_residency: ResidencySummary::from_layer(&m.residency[Layer::Parity as usize]),
            stalls: m.stall_waits,
            cache_read_hits: m.cache_read_hits,
            cache_lookups: m.cache_lookups,
            cache_hits: m.cache_hits,
            cache_hit_ratio: ratio(m.cache_hits as f64, m.cache_lookups as f64),
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
            read_mean_us: m.read_latency.mean() / 1_000.0,
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
            maint_migrated_gib: cl.maint.migrated_bytes as f64 / GIB,
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
}

/// `n / d`, or 0 when `d` is not positive.
fn ratio(n: f64, d: f64) -> f64 {
    if d > 0.0 {
        n / d
    } else {
        0.0
    }
}

/// The p99 (µs) of the samples inside `windows` and of those outside.
fn p99_split_us(log: &SampleLog, windows: &IntervalSet) -> (f64, f64) {
    let (inside, outside) = log.split(windows);
    (
        inside.quantile(0.99) as f64 / 1_000.0,
        outside.quantile(0.99) as f64 / 1_000.0,
    )
}

fn log_memory(cl: &Cluster) -> u64 {
    cl.nodes
        .iter()
        .map(|n| n.state.memory_bytes() + n.cache.as_ref().map_or(0, |c| c.memory_bytes()))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{OpClass, Stage};
    use rscode::CodeParams;

    /// The update phase of 4 clients × 400 Ali-Cloud ops on RS(4,2), 8
    /// nodes and 64 KiB blocks, traced: ops this size often span two
    /// blocks.
    fn run(
        method: &str,
        read_cache_bytes: Option<u64>,
        workload: Workload,
        faults: FaultPlan,
    ) -> Cluster {
        let mut cluster = ClusterConfig::builder()
            .code(CodeParams::new(4, 2).unwrap())
            .nodes(8)
            .clients(4)
            .block_bytes(64 << 10)
            .method_name(method)
            .build()
            .unwrap();
        cluster.read_cache_bytes = read_cache_bytes;
        let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
            .ops_per_client(400)
            .workload(workload)
            .faults(faults)
            .trace(TraceConfig::on())
            .build()
            .unwrap();
        run_update_phase(&rcfg).1
    }

    #[test]
    fn ops_that_span_blocks_are_counted_once_at_their_last_slice() {
        let acked = |m: &crate::cluster::Metrics| {
            m.completed_updates + m.completed_reads + m.completed_writes
        };
        // Three of eight nodes fail, so stripes that lose more than m = 2
        // blocks fail ops; each op is still acked or failed once.
        let at = 2 * simdes::units::MILLIS;
        let three_fail = || (1..=3).fold(FaultPlan::new(), |p, n| p.fail_node(at, n));
        for (method, cache) in [
            ("FO", None),
            ("TSUE", None),
            ("PLR", None),
            ("CoRD", Some(1 << 20)),
        ] {
            let mut cl = run(method, cache, Workload::ClosedLoop, FaultPlan::new());
            let m = &cl.metrics;
            assert_eq!((acked(m), m.failed_ops), (1_600, 0), "{method}");
            // The series, the latency histogram and the counter each see
            // every update once.
            let series: f64 = m.completions.rates_per_sec().iter().map(|&(_, r)| r).sum();
            assert_eq!(
                (series as u64, m.update_latency.count()),
                (m.completed_updates, m.completed_updates),
                "{method}"
            );
            // Every traced slice opens with one queue-wait span.
            let slices = cl
                .trace
                .finish(method)
                .0
                .iter()
                .find(|row| row.class == OpClass::Update && row.stage == Stage::QueueWait)
                .map_or(0, |row| row.count);
            assert!(slices > m.completed_updates, "{method}: no op spans blocks");

            let cl = run(method, cache, Workload::ClosedLoop, three_fail());
            assert!(cl.metrics.failed_ops > 0, "{method}: no op failed");
            assert_eq!(
                acked(&cl.metrics) + cl.metrics.failed_ops,
                1_600,
                "{method}"
            );

            // The open loop offers its ops whatever completes: each is
            // still acked or failed once.
            let open = Workload::Open(OpenLoopSpec::poisson(20_000.0));
            let cl = run(method, cache, open, three_fail());
            let Some(ClientLoop::Open(ol)) = &cl.clients else {
                unreachable!("an open-loop replay installs open-loop clients")
            };
            assert!(
                cl.metrics.failed_ops > 0,
                "{method}: no open-loop op failed"
            );
            assert_eq!(
                (ol.offered, acked(&cl.metrics) + cl.metrics.failed_ops),
                (1_600, 1_600),
                "{method}"
            );
        }
    }
}
