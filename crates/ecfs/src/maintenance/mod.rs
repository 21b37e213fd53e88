//! Background maintenance: continuous hygiene tasks competing with
//! foreground traffic on the shared simulation timeline.
//!
//! Real EC clusters spend a standing fraction of their I/O budget on
//! maintenance — scrubbing for latent sector errors, wear leveling — and
//! that traffic contends with clients on the very same disks, racks, and
//! spines. This module generalises the one-shot repair pump into a
//! policy engine:
//!
//! * [`MaintenancePlan`] — the validated, declarative configuration
//!   carried by [`crate::replay::ReplayConfig`]. An **empty plan is
//!   byte-for-byte the old behaviour**: nothing is armed, no state is
//!   touched, every existing golden holds. Scrub and LSE injection carry
//!   their rates and densities; rebalance is switched on or off and
//!   paces itself by constants in its own module, as does the LSE
//!   model's seed;
//! * a closed set of two policies, the variants of one crate-private
//!   `Policy` enum, each holding its own `Copy` state: scrub (periodic
//!   media scan that detects injected latent sector errors and repairs
//!   them through the normal rebuild path; a round-robin cursor) and
//!   rebalance (migrates block extents off the most-worn device, closing
//!   the loop on the observed-only `wear_bytes` counters; a rotation
//!   cursor and a sampled flag).
//!
//! Every policy runs under one horizon-bounded scheduler (`tick`), an
//! unboxed event carrying the policy's slot: one bounded work item per
//! event, booked time-forwarding style like the repair pump and
//! rescheduled at `max(now + interval, completion)`, stopping at the plan
//! horizon so the event loop always drains. Busy spans are recorded in
//! an [`IntervalSet`] so the replay engine can attribute foreground latency
//! to maintenance-busy versus maintenance-idle windows.

mod rebalance;
mod scrub;

use simdes::stats::IntervalSet;
use simdes::units::MILLIS;
use simdes::{Sim, SimTime};
use simdisk::LseModel;

use crate::cluster::Cluster;
use crate::config::ConfigError;

/// Periodic-scrub configuration: a whole-block media read every
/// `block_bytes / bytes_per_sec` of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScrubConfig {
    /// Scrub rate in bytes of media scanned per simulated second.
    pub bytes_per_sec: u64,
}

impl Default for ScrubConfig {
    fn default() -> Self {
        ScrubConfig {
            bytes_per_sec: 256 << 20,
        }
    }
}

/// Base seed of the LSE model; each device mixes in its node id.
const LSE_SEED: u64 = 0x5eed_15e5;

/// Latent-sector-error injection: how many deterministic error sites to
/// seed per device (see [`simdisk::lse`]). Every site is present from the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LseConfig {
    /// Error sites drawn per device.
    pub per_device: usize,
    /// Sites land in `[0, span_bytes)` (clamped to the device). The
    /// layout allocates block extents from offset 0 upward, so a span
    /// near the expected placed footprint puts errors *under data* —
    /// at simulation scale a whole-device spray would mostly corrupt
    /// empty media no scrub or rebuild would ever touch.
    pub span_bytes: u64,
}

impl Default for LseConfig {
    fn default() -> Self {
        LseConfig {
            per_device: 2,
            span_bytes: 64 << 20,
        }
    }
}

/// The validated background-maintenance plan carried by
/// [`crate::replay::ReplayConfig`]. The default (empty) plan arms
/// nothing and reproduces the pre-maintenance engine byte for byte.
///
/// ```
/// use ecfs::maintenance::{MaintenancePlan, ScrubConfig};
///
/// let plan = MaintenancePlan::new().with_scrub(ScrubConfig::default());
/// assert!(!plan.is_empty());
/// assert!(MaintenancePlan::default().is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaintenancePlan {
    /// Periodic scrubbing, if enabled.
    pub scrub: Option<ScrubConfig>,
    /// Whether wear-leveling rebalance is enabled.
    pub rebalance: bool,
    /// Latent-sector-error injection, if enabled. An LSE-only plan is
    /// legal: it seeds errors without any policy to find them — the
    /// exposure baseline the scrub policy is measured against.
    pub lse: Option<LseConfig>,
    /// Absolute simulation time (on the update-phase timeline, the same
    /// clock as [`crate::fault::FaultEvent::at_ns`]) past which no
    /// maintenance tick is scheduled. Bounds the event loop.
    pub horizon_ns: SimTime,
}

impl Default for MaintenancePlan {
    fn default() -> Self {
        MaintenancePlan {
            scrub: None,
            rebalance: false,
            lse: None,
            horizon_ns: 80 * MILLIS,
        }
    }
}

impl MaintenancePlan {
    /// An empty plan (current behaviour; nothing armed).
    pub fn new() -> MaintenancePlan {
        MaintenancePlan::default()
    }

    /// Both policies (scrub and wear-leveling rebalance) plus LSE
    /// injection, at default settings — the bench's "full hygiene"
    /// configuration. It is valid on any fleet.
    pub fn full() -> MaintenancePlan {
        MaintenancePlan::new()
            .with_scrub(ScrubConfig::default())
            .with_rebalance()
            .with_lse(LseConfig::default())
    }

    /// Enables periodic scrubbing.
    pub fn with_scrub(mut self, cfg: ScrubConfig) -> MaintenancePlan {
        self.scrub = Some(cfg);
        self
    }

    /// Enables wear-leveling rebalance.
    pub fn with_rebalance(mut self) -> MaintenancePlan {
        self.rebalance = true;
        self
    }

    /// Enables latent-sector-error injection.
    pub fn with_lse(mut self, cfg: LseConfig) -> MaintenancePlan {
        self.lse = Some(cfg);
        self
    }

    /// Sets the scheduling horizon.
    pub fn with_horizon(mut self, horizon_ns: SimTime) -> MaintenancePlan {
        self.horizon_ns = horizon_ns;
        self
    }

    /// Whether the plan enables anything at all.
    pub fn is_empty(&self) -> bool {
        self.scrub.is_none() && !self.rebalance && self.lse.is_none()
    }

    /// Validates the plan's settings. No check depends on the cluster:
    /// every policy runs on any fleet.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.is_empty() {
            return Ok(());
        }
        if self.horizon_ns == 0 {
            return Err("maintenance horizon must be non-zero".into());
        }
        if let Some(s) = &self.scrub {
            if s.bytes_per_sec == 0 {
                return Err("scrub rate must be non-zero".into());
            }
        }
        if let Some(l) = &self.lse {
            if l.per_device == 0 {
                return Err("LSE injection needs at least one site per device".into());
            }
            if l.span_bytes == 0 {
                return Err("LSE span must be non-zero".into());
            }
        }
        Ok(())
    }
}

/// One armed background task, holding its own state. Each `tick` books
/// **one bounded work item** in time-forwarding style on the shared
/// cluster resources and returns its completion time, or `None` when
/// there was nothing to do this round.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Policy {
    /// Periodic scrubbing, with its round-robin cursor.
    Scrub(scrub::Scrub),
    /// Wear-leveling rebalance, with its rotation cursor.
    Rebalance(rebalance::Rebalance),
}

impl Policy {
    /// Pacing interval between ticks.
    fn interval_ns(&self, cl: &Cluster) -> SimTime {
        match self {
            Policy::Scrub(s) => s.interval_ns(cl),
            Policy::Rebalance(_) => rebalance::INTERVAL_NS,
        }
    }

    /// Performs one bounded unit of work at `sim.now()`; returns the
    /// completion time of the booked I/O, or `None` for an idle tick.
    fn tick(&mut self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> Option<SimTime> {
        match self {
            Policy::Scrub(s) => s.tick(sim, cl),
            Policy::Rebalance(r) => r.tick(sim, cl),
        }
    }
}

/// Runtime maintenance state, held on [`Cluster`]. `Default` (inactive,
/// all counters zero) is the armed-nothing state every run starts in.
#[derive(Default)]
pub struct MaintState {
    /// Whether a non-empty plan was armed on this run.
    pub active: bool,
    /// Absolute scheduling horizon copied from the plan.
    pub horizon: SimTime,
    /// The armed policies, indexed by arming order (a tick's slot).
    pub(crate) policies: Vec<Policy>,
    /// Union of maintenance-busy time spans, for foreground-latency
    /// cost attribution.
    pub windows: IntervalSet,
    /// Media bytes scanned by the scrubber.
    pub scrub_bytes: u64,
    /// Whole blocks scanned by the scrubber.
    pub scrub_blocks: u64,
    /// Latent sector errors detected by scrub passes.
    pub lse_found: u64,
    /// Detected errors whose covering block was rebuilt.
    pub lse_repaired: u64,
    /// Bytes migrated by the wear-leveling rebalancer.
    pub migrated_bytes: u64,
    /// Wear spread (max/mean) over the devices the rebalancer levels
    /// (live flash on a mixed fleet, every live device on a uniform one),
    /// sampled at its first sight of non-zero wear. See
    /// [`crate::replay::RunResult::wear_spread_before`] for how it
    /// compares with the end-of-run spread.
    pub wear_spread_before: f64,
}

/// Arms a validated non-empty plan on the cluster: installs per-device
/// LSE oracles and schedules the first tick of every enabled policy.
/// Called once by the replay engine at the start of the update phase.
pub(crate) fn arm(sim: &mut Sim<Cluster>, cl: &mut Cluster, plan: &MaintenancePlan) {
    cl.maint.active = true;
    cl.maint.horizon = plan.horizon_ns;
    if let Some(lse) = &plan.lse {
        for node in 0..cl.cfg.nodes {
            let cap = cl.nodes[node].disk.capacity();
            let model = LseModel::seeded(
                LSE_SEED ^ node as u64,
                lse.span_bytes.min(cap).max(4096),
                lse.per_device,
                0,
            );
            cl.nodes[node].disk.install_lse(model);
        }
    }

    let scrub = plan.scrub.map(|c| Policy::Scrub(scrub::Scrub::new(c)));
    let rebalance = plan
        .rebalance
        .then(|| Policy::Rebalance(rebalance::Rebalance::default()));
    for policy in [scrub, rebalance].into_iter().flatten() {
        let slot = cl.maint.policies.len();
        cl.maint.policies.push(policy);
        let first = sim.now() + policy.interval_ns(cl).max(1);
        if first < cl.maint.horizon {
            sim.schedule_call_u_at(first, tick, slot as u64);
        }
    }
}

/// One scheduler round for one policy: run its `tick`, record the busy
/// span for cost attribution, and reschedule at
/// `max(now + interval, completion)` — strictly before the horizon so
/// the event loop always drains.
fn tick(sim: &mut Sim<Cluster>, cl: &mut Cluster, slot: u64) {
    let now = sim.now();
    if now >= cl.maint.horizon {
        return;
    }
    let mut policy = cl.maint.policies[slot as usize];
    let done = policy.tick(sim, cl);
    cl.maint.policies[slot as usize] = policy;
    let mut next = now + policy.interval_ns(cl).max(1);
    if let Some(t) = done {
        if t > now {
            cl.maint.windows.insert(now, t);
            // One background lane per policy slot: the busy window the
            // cost-attribution split uses, visible in the trace too.
            cl.trace_child(crate::telemetry::Stage::Maintenance, slot as usize, now, t);
        }
        next = next.max(t);
    }
    if next < cl.maint.horizon {
        sim.schedule_call_u_at(next, tick, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::replay::ReplayConfig;

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let plan = MaintenancePlan::default();
        assert!(plan.is_empty());
        assert!(plan.validate().is_ok());
        // Even a zero horizon is fine when nothing is armed.
        assert!(plan.clone().with_horizon(0).validate().is_ok());
    }

    #[test]
    fn builders_accumulate() {
        let plan = MaintenancePlan::full();
        assert!(plan.scrub.is_some());
        assert!(plan.rebalance);
        assert!(plan.lse.is_some());
        assert!(!plan.is_empty());
        // The full plan runs on any fleet, the uniform flash testbed too.
        let code = rscode::CodeParams::new(6, 3).unwrap();
        let cluster = ClusterConfig::ssd_testbed(code, crate::methods::Method::Tsue);
        let mut rcfg = ReplayConfig::new(cluster, traces::TraceFamily::AliCloud);
        rcfg.maintenance = plan;
        assert!(rcfg.validate().is_ok());
    }

    #[test]
    fn zero_horizon_rejected_when_armed() {
        let plan = MaintenancePlan::new()
            .with_scrub(ScrubConfig::default())
            .with_horizon(0);
        assert!(plan.validate().is_err());
    }

    #[test]
    fn zero_scrub_rate_rejected() {
        let plan = MaintenancePlan::new().with_scrub(ScrubConfig { bytes_per_sec: 0 });
        assert!(plan.validate().is_err());
    }

    #[test]
    fn lse_bounds_rejected() {
        let l = LseConfig {
            per_device: 0,
            ..LseConfig::default()
        };
        assert!(MaintenancePlan::new().with_lse(l).validate().is_err());
        let l = LseConfig {
            span_bytes: 0,
            ..LseConfig::default()
        };
        assert!(MaintenancePlan::new().with_lse(l).validate().is_err());
    }
}
