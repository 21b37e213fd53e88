//! Fault plans: scheduled mid-replay failures as first-class simulation
//! events.
//!
//! A [`FaultPlan`] attaches to a [`crate::replay::ReplayConfig`] and turns
//! the replay into a unified fault timeline: at each [`FaultEvent`]'s
//! `at_ns` the scope's nodes are marked dead *while clients are still
//! issuing*, and after [`FaultPlan::recovery_delay_ns`] (the detection /
//! mon-election lag) a repair scheduler starts rebuilding the lost blocks
//! on the same [`simdes::Sim`] timeline as the foreground traffic — repair
//! reads and writes reserve the same disk and fabric resources clients
//! use, so rebuild interference is measured, not assumed.
//!
//! While a block's home node is dead and the block has not been re-homed
//! yet, ops targeting it take the degraded path (see
//! [`crate::methods::begin`]): reads decode the lost block from `k`
//! survivors, updates first rebuild-and-relocate the block inline. The empty plan is the default and changes nothing — a replay
//! without faults is byte-for-byte the pre-fault-timeline replay.

use std::collections::VecDeque;

use simdes::SimTime;

use crate::config::{ClusterConfig, ConfigError};
use crate::layout::BlockAddr;

/// What fails at a [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// A single OSD node.
    Node(usize),
    /// Every node of one rack (ToR switch / PDU failure).
    Rack(usize),
}

/// One scheduled failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation time of the failure, nanoseconds from replay start.
    pub at_ns: u64,
    /// What fails.
    pub scope: FaultScope,
}

/// A schedule of failures plus the repair policy, validated like the rest
/// of the replay configuration. [`FaultPlan::default`] is the empty plan:
/// no failures, no repair scheduler, no behavioural change.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scheduled failures.
    pub events: Vec<FaultEvent>,
    /// Lag between a failure and the start of its repair (failure
    /// detection, re-election, rebuild planning).
    pub recovery_delay_ns: u64,
    /// Repair pacing in bytes/s: the rebuild stream never moves data
    /// faster than this, bounding how hard repair can squeeze foreground
    /// traffic. `None` rebuilds as fast as the shared resources allow.
    pub repair_bandwidth: Option<u64>,
}

impl FaultPlan {
    /// The empty plan (no failures).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether the plan schedules no failures.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a node failure at `at_ns` (builder-style).
    pub fn fail_node(mut self, at_ns: u64, node: usize) -> FaultPlan {
        self.events.push(FaultEvent {
            at_ns,
            scope: FaultScope::Node(node),
        });
        self
    }

    /// Adds a whole-rack failure at `at_ns` (builder-style).
    pub fn fail_rack(mut self, at_ns: u64, rack: usize) -> FaultPlan {
        self.events.push(FaultEvent {
            at_ns,
            scope: FaultScope::Rack(rack),
        });
        self
    }

    /// Sets the failure-detection lag before repair starts (builder-style).
    pub fn with_recovery_delay(mut self, delay_ns: u64) -> FaultPlan {
        self.recovery_delay_ns = delay_ns;
        self
    }

    /// Sets the repair-bandwidth throttle (builder-style).
    pub fn with_repair_bandwidth(mut self, bytes_per_sec: u64) -> FaultPlan {
        self.repair_bandwidth = Some(bytes_per_sec);
        self
    }

    /// Validates the plan against the cluster it will be injected into.
    pub fn validate(&self, cfg: &ClusterConfig) -> Result<(), ConfigError> {
        let mut dead = vec![false; cfg.nodes];
        for ev in &self.events {
            match ev.scope {
                FaultScope::Node(n) => {
                    if n >= cfg.nodes {
                        return Err(ConfigError(format!(
                            "fault plan fails node {n} but the cluster has {} nodes",
                            cfg.nodes
                        )));
                    }
                    dead[n] = true;
                }
                FaultScope::Rack(r) => {
                    if r >= cfg.racks {
                        return Err(ConfigError(format!(
                            "fault plan fails rack {r} but the cluster has {} racks",
                            cfg.racks
                        )));
                    }
                    let rm = cfg.rack_map();
                    for (n, d) in dead.iter_mut().enumerate() {
                        if rm.rack_of(n) == r {
                            *d = true;
                        }
                    }
                }
            }
        }
        if dead.iter().all(|&d| d) && !self.events.is_empty() {
            return Err("fault plan kills every node in the cluster".into());
        }
        if self.repair_bandwidth == Some(0) {
            return Err("repair_bandwidth must be positive".into());
        }
        Ok(())
    }
}

/// One injected failure, tracked from injection to repair completion.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    /// When the failure fired.
    pub at: SimTime,
    /// The nodes that went down (excluding already-dead ones).
    pub victims: Vec<usize>,
    /// Lost blocks still awaiting rebuild by the repair scheduler.
    pub outstanding: usize,
    /// When the last lost block finished rebuilding (`None` while the
    /// repair is still running).
    pub repair_done: Option<SimTime>,
}

/// Runtime fault-timeline state carried by [`crate::cluster::Cluster`]:
/// injected failures, the repair queue, and the availability counters the
/// replay harvests into [`crate::replay::RunResult`].
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    /// Whether any node has ever failed — the cheap gate on the degraded
    /// dispatch path (false = the exact pre-fault-timeline hot path). It
    /// stays set after repair: rebuilt blocks are relocated, but a block
    /// never written before the failure still has the dead node as its
    /// policy home and must be re-homed on first touch.
    pub degraded_mode: bool,
    /// Detection lag copied from the plan.
    pub recovery_delay: SimTime,
    /// Repair pacing copied from the plan.
    pub repair_bandwidth: Option<u64>,
    /// Failures injected so far, in injection order.
    pub injected: Vec<InjectedFault>,
    /// Lost blocks queued for the repair scheduler, with the index of the
    /// fault that lost them.
    pub queue: VecDeque<(BlockAddr, usize)>,
    /// Whether a rebuild is currently in flight (the scheduler rebuilds
    /// one block per event so every booking happens at the simulation
    /// present, interleaved with foreground traffic).
    pub pump_active: bool,
    /// Rotation salt for rebuild-target selection.
    pub rebuild_seq: u64,
    /// Blocks rebuilt by the repair scheduler.
    pub repaired_blocks: u64,
    /// Bytes rebuilt by the repair scheduler.
    pub repaired_bytes: u64,
    /// Blocks rebuilt inline by the degraded update/write path (write
    /// triggered, ahead of the scheduler).
    pub inline_rebuilds: u64,
    /// Rebuilds whose *target* died while the rebuild was in flight and
    /// that were re-queued for a fresh target (overlapping faults).
    pub retargeted_rebuilds: u64,
    /// Lost blocks whose stripes fell below `k` survivors: data loss.
    pub data_loss_blocks: u64,
}

impl FaultState {
    /// Marks one queued rebuild of fault `idx` finished at `t`; closes the
    /// fault's degraded window when it was the last one.
    pub(crate) fn block_done(&mut self, idx: usize, t: SimTime) {
        let f = &mut self.injected[idx];
        f.outstanding = f.outstanding.saturating_sub(1);
        if f.outstanding == 0 && f.repair_done.is_none() {
            f.repair_done = Some(t);
        }
    }

    /// The degraded windows: `[fault, repair completion)` per injected
    /// fault, with `fallback_end` closing windows whose repair never
    /// finished (data loss, or the run ended first).
    pub fn windows(&self, fallback_end: SimTime) -> simdes::stats::IntervalSet {
        let mut w = simdes::stats::IntervalSet::new();
        for f in &self.injected {
            let end = f.repair_done.unwrap_or(fallback_end).max(f.at + 1);
            w.insert(f.at, end);
        }
        w
    }

    /// Worst repair completion time over all injected faults (MTTR),
    /// seconds; 0 when nothing was injected.
    pub fn mttr_s(&self, fallback_end: SimTime) -> f64 {
        self.injected
            .iter()
            .map(|f| {
                let end = f.repair_done.unwrap_or(fallback_end).max(f.at);
                simdes::units::as_secs_f64(end - f.at)
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::methods::Method;
    use rscode::CodeParams;

    fn cfg() -> ClusterConfig {
        let mut c = ClusterConfig::ssd_testbed(CodeParams::new(6, 3).unwrap(), Method::Tsue);
        c.racks = 4;
        c
    }

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert!(plan.validate(&cfg()).is_ok());
        assert_eq!(plan, FaultPlan::default());
    }

    #[test]
    fn builder_accumulates_events() {
        let plan = FaultPlan::new()
            .fail_node(1_000, 3)
            .fail_rack(2_000, 1)
            .with_recovery_delay(500)
            .with_repair_bandwidth(100 << 20);
        assert_eq!(plan.events.len(), 2);
        assert_eq!(plan.recovery_delay_ns, 500);
        assert_eq!(plan.repair_bandwidth, Some(100 << 20));
        assert!(plan.validate(&cfg()).is_ok());
    }

    #[test]
    fn out_of_range_scopes_rejected() {
        assert!(FaultPlan::new().fail_node(0, 16).validate(&cfg()).is_err());
        assert!(FaultPlan::new().fail_rack(0, 4).validate(&cfg()).is_err());
    }

    #[test]
    fn killing_every_node_rejected() {
        let mut plan = FaultPlan::new();
        for r in 0..4 {
            plan = plan.fail_rack(r as u64, r);
        }
        let err = plan.validate(&cfg()).unwrap_err();
        assert!(err.to_string().contains("every node"));
    }

    #[test]
    fn zero_repair_bandwidth_rejected() {
        let plan = FaultPlan::new().fail_node(0, 0).with_repair_bandwidth(0);
        assert!(plan.validate(&cfg()).is_err());
    }

    #[test]
    fn fault_state_windows_and_mttr() {
        let mut fs = FaultState::default();
        fs.injected.push(InjectedFault {
            at: 1_000_000_000,
            victims: vec![2],
            outstanding: 2,
            repair_done: None,
        });
        fs.block_done(0, 3_000_000_000);
        assert!(fs.injected[0].repair_done.is_none());
        fs.block_done(0, 4_000_000_000);
        assert_eq!(fs.injected[0].repair_done, Some(4_000_000_000));
        let w = fs.windows(0);
        assert!(w.contains(2_000_000_000));
        assert!(!w.contains(4_000_000_001));
        assert!((fs.mttr_s(0) - 3.0).abs() < 1e-9);
    }
}
