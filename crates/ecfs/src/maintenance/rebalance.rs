//! Wear-leveling rebalance: migrate block extents off the most-worn
//! device onto the least-worn one, closing the loop on the per-device
//! `wear_bytes` counters that were previously observed-only.
//!
//! Every `INTERVAL_NS` the policy compares the live fleet's maximum
//! wear against the mean; when `max > TRIGGER_RATIO * mean` one block is
//! moved from the most-worn device to the least-worn with
//! `Cluster::move_block` (sequential read, repair-class transfer,
//! sequential log-region write, metadata relocate). The migration itself
//! costs a write on the target — wear leveling is never free — but the
//! write lands where it hurts least, so the max/mean spread falls.
//!
//! On a mixed flash/HDD fleet only the flash devices participate: wear
//! is a flash-lifetime currency, and "leveling" onto the least-written
//! spindle would concentrate block traffic on a single HDD (slow for
//! the foreground, meaningless for endurance).
//!
//! The policy's state, carried in its `Policy::Rebalance` variant, is a
//! rotation cursor over the donor's blocks and the flag that samples the
//! before-spread once.

use simdes::units::MILLIS;
use simdes::{Sim, SimTime};

use crate::cluster::Cluster;

/// Pacing interval between rebalance decisions.
pub(crate) const INTERVAL_NS: SimTime = 2 * MILLIS;

/// Migration triggers when `max_wear > TRIGGER_RATIO * mean_wear` across
/// live devices (1.0 would always rebalance; higher is lazier).
const TRIGGER_RATIO: f64 = 1.05;

/// The wear-leveling policy (see module docs): a rotation cursor over the
/// worn node's blocks plus the one-shot before-spread sample flag.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Rebalance {
    cursor: usize,
    sampled: bool,
}

impl Rebalance {
    /// Moves one block off the most-worn device when the spread is past
    /// the trigger.
    pub(crate) fn tick(&mut self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> Option<SimTime> {
        let now = sim.now();

        // Mixed fleet: level flash only (see module docs). On uniform
        // fleets every node participates.
        let mixed = (0..cl.cfg.nodes).any(|n| cl.cfg.fleet.is_ssd(n))
            && (0..cl.cfg.nodes).any(|n| !cl.cfg.fleet.is_ssd(n));
        let eligible = |i: usize| !mixed || cl.cfg.fleet.is_ssd(i);

        // Live-fleet wear census; ties break toward the lowest node id
        // so the decision is deterministic.
        let mut max_wear = 0u64;
        let mut worn: Option<usize> = None;
        let mut sum = 0u64;
        let mut live = 0u64;
        for (i, osd) in cl.nodes.iter().enumerate() {
            if osd.failed || !eligible(i) {
                continue;
            }
            let w = osd.disk.wear_bytes();
            sum += w;
            live += 1;
            if worn.is_none() || w > max_wear {
                max_wear = w;
                worn = Some(i);
            }
        }
        let mean = sum as f64 / live.max(1) as f64;

        if !self.sampled && mean > 0.0 {
            cl.maint.wear_spread_before = max_wear as f64 / mean;
            self.sampled = true;
        }

        if mean <= 0.0 || (max_wear as f64) <= TRIGGER_RATIO * mean {
            return None;
        }
        let worn = worn?;

        // Least-worn live node other than the donor.
        let mut target: Option<usize> = None;
        let mut min_wear = u64::MAX;
        for (i, osd) in cl.nodes.iter().enumerate() {
            if osd.failed || i == worn || !eligible(i) {
                continue;
            }
            let w = osd.disk.wear_bytes();
            if w < min_wear {
                min_wear = w;
                target = Some(i);
            }
        }
        let target = target?;

        let blocks = cl.layout.blocks_on(worn);
        if blocks.is_empty() {
            return None;
        }
        let (addr, dev_off) = blocks[self.cursor % blocks.len()];
        self.cursor += 1;

        let t_write = cl.move_block(now, addr, worn, dev_off, target);
        cl.maint.migrated_bytes += cl.layout.span(addr);
        Some(t_write)
    }
}
