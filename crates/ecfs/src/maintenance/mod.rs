//! Background maintenance: continuous hygiene tasks competing with
//! foreground traffic on the shared simulation timeline.
//!
//! Real EC clusters spend a standing fraction of their I/O budget on
//! maintenance — scrubbing for latent sector errors, wear leveling, tier
//! migration — and that traffic contends with clients on the very same
//! disks, racks, and spines. This module generalises the one-shot repair
//! pump into a policy engine:
//!
//! * [`MaintenancePolicy`] — the object-safe contract a background task
//!   implements: a pacing interval plus a `tick` that books one bounded
//!   unit of work (time-forwarding style, exactly like the repair pump);
//! * [`MaintenancePlan`] — the validated, declarative configuration
//!   carried by [`crate::replay::ReplayConfig`]. An **empty plan is
//!   byte-for-byte the old behaviour**: nothing is armed, no state is
//!   touched, every existing golden holds;
//! * three built-in policies:
//!   [`scrub::Scrub`] (periodic media scan that detects injected latent
//!   sector errors and repairs them through the normal rebuild path),
//!   [`rebalance::Rebalance`] (migrates block extents off the most-worn
//!   device, closing the loop on the observed-only `wear_bytes`
//!   counters), [`demote::Demote`] (the paper's §5.4 insight automated:
//!   parity blocks drain from flash to spindles on mixed fleets).
//!
//! Every policy runs under one horizon-bounded scheduler (`tick`):
//! one work item per event, rescheduled at
//! `max(now + interval, completion)`, stopping at the plan horizon so
//! the event loop always drains. Busy spans are recorded in a
//! [`WindowSet`] so the replay engine can attribute foreground latency
//! to maintenance-busy versus maintenance-idle windows.

pub mod demote;
pub mod rebalance;
pub mod scrub;

use std::any::Any;
use std::sync::Arc;

use simdes::stats::WindowSet;
use simdes::units::MILLIS;
use simdes::{Sim, SimTime};
use simdisk::LseModel;

use crate::cluster::Cluster;
use crate::config::{ClusterConfig, ConfigError};

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

/// Wear-leveling rebalance configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Pacing interval between rebalance decisions.
    pub interval_ns: SimTime,
    /// Migration triggers when `max_wear > trigger_ratio * mean_wear`
    /// across live devices (1.0 = always rebalance, higher = lazier).
    pub trigger_ratio: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            interval_ns: 2 * MILLIS,
            trigger_ratio: 1.05,
        }
    }
}

/// Tier-aware demotion configuration (§5.4 automated). While demotion
/// is armed, TSUE's synchronous log appends also prefer flash nodes
/// ([`MaintState::pin_appends`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemoteConfig {
    /// Pacing interval between demotion moves.
    pub interval_ns: SimTime,
}

impl Default for DemoteConfig {
    fn default() -> Self {
        DemoteConfig {
            interval_ns: 4 * MILLIS,
        }
    }
}

/// Latent-sector-error injection: how many deterministic error sites to
/// seed per device (see [`simdisk::lse`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LseConfig {
    /// Error sites drawn per device.
    pub per_device: usize,
    /// Base seed; each device mixes in its node id.
    pub seed: u64,
    /// Onsets are drawn in `[0, onset_horizon_ns]`; 0 = all sites are
    /// present from the start.
    pub onset_horizon_ns: SimTime,
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
            seed: 0x5eed_15e5,
            onset_horizon_ns: 0,
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
    /// Wear-leveling rebalance, if enabled.
    pub rebalance: Option<RebalanceConfig>,
    /// Tier-aware parity demotion, if enabled.
    pub demote: Option<DemoteConfig>,
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
            rebalance: None,
            demote: None,
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

    /// All three policies plus LSE injection, at default settings — the
    /// bench's "full hygiene" configuration.
    pub fn full() -> MaintenancePlan {
        MaintenancePlan::new()
            .with_scrub(ScrubConfig::default())
            .with_rebalance(RebalanceConfig::default())
            .with_demote(DemoteConfig::default())
            .with_lse(LseConfig::default())
    }

    /// Enables periodic scrubbing.
    pub fn with_scrub(mut self, cfg: ScrubConfig) -> MaintenancePlan {
        self.scrub = Some(cfg);
        self
    }

    /// Enables wear-leveling rebalance.
    pub fn with_rebalance(mut self, cfg: RebalanceConfig) -> MaintenancePlan {
        self.rebalance = Some(cfg);
        self
    }

    /// Enables tier-aware parity demotion.
    pub fn with_demote(mut self, cfg: DemoteConfig) -> MaintenancePlan {
        self.demote = Some(cfg);
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
        self.scrub.is_none()
            && self.rebalance.is_none()
            && self.demote.is_none()
            && self.lse.is_none()
    }

    /// Validates the plan against the cluster it will run on.
    pub fn validate(&self, cfg: &ClusterConfig) -> Result<(), ConfigError> {
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
        if let Some(r) = &self.rebalance {
            if r.interval_ns == 0 {
                return Err("rebalance interval must be non-zero".into());
            }
            if !r.trigger_ratio.is_finite() || r.trigger_ratio < 1.0 {
                return Err("rebalance trigger ratio must be finite and >= 1.0".into());
            }
        }
        if let Some(d) = &self.demote {
            if d.interval_ns == 0 {
                return Err("demote interval must be non-zero".into());
            }
            let any_ssd = (0..cfg.nodes).any(|n| cfg.fleet.is_ssd(n));
            let any_hdd = (0..cfg.nodes).any(|n| !cfg.fleet.is_ssd(n));
            if !any_ssd || !any_hdd {
                return Err("tier demotion needs a mixed fleet (>=1 SSD and >=1 HDD node)".into());
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

/// The object-safe contract for one background-maintenance task.
///
/// Policies are stateless handles; all mutable state lives in a
/// per-policy slot on [`MaintState`] as `Box<dyn Any + Send>` (the
/// same pattern as [`crate::methods::NodeLogState`]). Each `tick`
/// books **one bounded work item** in time-forwarding style on the
/// shared cluster resources and returns its completion time, or `None`
/// when there was nothing to do this round.
pub trait MaintenancePolicy: Send + Sync + std::fmt::Debug {
    /// Display name (used in results and logs).
    fn name(&self) -> &'static str;

    /// Pacing interval between ticks. Takes the cluster so rate-based
    /// policies (scrub) can derive their cadence from block size.
    fn interval_ns(&self, cl: &Cluster) -> SimTime;

    /// Builds the policy's slot state (cursors, dedup sets, ...).
    fn init_state(&self) -> Box<dyn Any + Send>;

    /// Performs one bounded unit of work at `sim.now()`; returns the
    /// completion time of the booked I/O, or `None` for an idle tick.
    fn tick(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, slot: usize) -> Option<SimTime>;
}

/// Runtime maintenance state, held on [`Cluster`]. `Default` (inactive,
/// all counters zero) is the armed-nothing state every run starts in.
#[derive(Default)]
pub struct MaintState {
    /// Whether a non-empty plan was armed on this run.
    pub active: bool,
    /// Absolute scheduling horizon copied from the plan.
    pub horizon: SimTime,
    /// Per-policy opaque state, indexed by arming order.
    pub slots: Vec<Box<dyn Any + Send>>,
    /// Union of maintenance-busy time spans, for foreground-latency
    /// cost attribution.
    pub windows: WindowSet,
    /// Whether TSUE appends should prefer flash replicas (set whenever
    /// the plan arms demotion).
    pub pin_appends: bool,
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
    /// Bytes demoted from flash to spindles.
    pub demoted_bytes: u64,
    /// Live-fleet wear spread (max/mean) sampled at the rebalancer's
    /// first sight of non-zero wear — the "before" of before/after.
    pub wear_spread_before: f64,
}

/// Arms a validated non-empty plan on the cluster: installs per-device
/// LSE oracles, sets the append-pinning flag, and schedules the first
/// tick of every enabled policy. Called once by the replay engine at
/// the start of the update phase.
pub(crate) fn arm(sim: &mut Sim<Cluster>, cl: &mut Cluster, plan: &MaintenancePlan) {
    cl.maint.active = true;
    cl.maint.horizon = plan.horizon_ns;
    if let Some(lse) = &plan.lse {
        for node in 0..cl.cfg.nodes {
            let cap = cl.nodes[node].disk.capacity();
            let model = LseModel::seeded(
                lse.seed ^ node as u64,
                lse.span_bytes.min(cap).max(4096),
                lse.per_device,
                lse.onset_horizon_ns,
            );
            cl.nodes[node].disk.install_lse(model);
        }
    }
    cl.maint.pin_appends = plan.demote.is_some();

    let mut policies: Vec<Arc<dyn MaintenancePolicy>> = Vec::new();
    if let Some(c) = plan.scrub {
        policies.push(Arc::new(scrub::Scrub::new(c)));
    }
    if let Some(c) = plan.rebalance {
        policies.push(Arc::new(rebalance::Rebalance::new(c)));
    }
    if let Some(c) = plan.demote {
        policies.push(Arc::new(demote::Demote::new(c)));
    }
    for policy in policies {
        let slot = cl.maint.slots.len();
        cl.maint.slots.push(policy.init_state());
        let first = sim.now() + policy.interval_ns(cl).max(1);
        if first < cl.maint.horizon {
            sim.schedule_at(first, move |sim, cl: &mut Cluster| {
                tick(sim, cl, policy, slot);
            });
        }
    }
}

/// One scheduler round for one policy: run its `tick`, record the busy
/// span for cost attribution, and reschedule at
/// `max(now + interval, completion)` — strictly before the horizon so
/// the event loop always drains.
fn tick(sim: &mut Sim<Cluster>, cl: &mut Cluster, policy: Arc<dyn MaintenancePolicy>, slot: usize) {
    let now = sim.now();
    if now >= cl.maint.horizon {
        return;
    }
    let done = policy.tick(sim, cl, slot);
    let mut next = now + policy.interval_ns(cl).max(1);
    if let Some(t) = done {
        if t > now {
            cl.maint.windows.insert(now, t);
            // One background lane per policy slot: the busy window the
            // cost-attribution split uses, visible in the trace too.
            cl.trace_child(crate::telemetry::Stage::Maintenance, slot, now, t);
        }
        next = next.max(t);
    }
    if next < cl.maint.horizon {
        sim.schedule_at(next, move |sim, cl: &mut Cluster| {
            tick(sim, cl, policy, slot);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::Tsue;
    use rscode::CodeParams;

    fn cfg() -> ClusterConfig {
        ClusterConfig::ssd_testbed(CodeParams::new(6, 3).unwrap(), Arc::new(Tsue))
    }

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let plan = MaintenancePlan::default();
        assert!(plan.is_empty());
        assert!(plan.validate(&cfg()).is_ok());
        // Even a zero horizon is fine when nothing is armed.
        assert!(plan.clone().with_horizon(0).validate(&cfg()).is_ok());
    }

    #[test]
    fn builders_accumulate() {
        let plan = MaintenancePlan::full();
        assert!(plan.scrub.is_some());
        assert!(plan.rebalance.is_some());
        assert!(plan.demote.is_some());
        assert!(plan.lse.is_some());
        assert!(!plan.is_empty());
    }

    #[test]
    fn zero_horizon_rejected_when_armed() {
        let plan = MaintenancePlan::new()
            .with_scrub(ScrubConfig::default())
            .with_horizon(0);
        assert!(plan.validate(&cfg()).is_err());
    }

    #[test]
    fn zero_scrub_rate_rejected() {
        let plan = MaintenancePlan::new().with_scrub(ScrubConfig { bytes_per_sec: 0 });
        assert!(plan.validate(&cfg()).is_err());
    }

    #[test]
    fn bad_trigger_ratio_rejected() {
        let bad = RebalanceConfig {
            trigger_ratio: 0.5,
            ..RebalanceConfig::default()
        };
        let plan = MaintenancePlan::new().with_rebalance(bad);
        assert!(plan.validate(&cfg()).is_err());
        let nan = RebalanceConfig {
            trigger_ratio: f64::NAN,
            ..RebalanceConfig::default()
        };
        assert!(MaintenancePlan::new()
            .with_rebalance(nan)
            .validate(&cfg())
            .is_err());
    }

    #[test]
    fn demote_requires_mixed_fleet() {
        let plan = MaintenancePlan::new().with_demote(DemoteConfig::default());
        // ssd_testbed is a uniform all-SSD fleet: no spindles to demote to.
        assert!(plan.validate(&cfg()).is_err());
        let mut mixed = cfg();
        mixed.fleet = crate::fleet::DiskFleet::tiered(8, 8);
        assert!(plan.validate(&mixed).is_ok());
    }

    #[test]
    fn lse_bounds_rejected() {
        let l = LseConfig {
            per_device: 0,
            ..LseConfig::default()
        };
        assert!(MaintenancePlan::new().with_lse(l).validate(&cfg()).is_err());
        let l = LseConfig {
            span_bytes: 0,
            ..LseConfig::default()
        };
        assert!(MaintenancePlan::new().with_lse(l).validate(&cfg()).is_err());
    }
}
