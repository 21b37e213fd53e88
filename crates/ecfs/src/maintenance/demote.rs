//! Tier-aware log demotion: the paper's §5.4 placement insight run as a
//! continuous policy instead of a static fleet choice.
//!
//! TSUE's observation is that only the synchronous DataLog append sits
//! on the client's critical path — everything downstream (recycle
//! folds, parity deltas) is background sequential I/O a spindle handles
//! fine. On a mixed fleet this policy therefore (a) drains parity
//! blocks — recycle targets, never read synchronously — from flash
//! nodes to the emptiest spindle node, one block per tick, and (b)
//! pins TSUE's replica append to flash nodes
//! ([`crate::maintenance::MaintState::pin_appends`]) so the
//! two-append critical path never waits on a seek.

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use std::any::Any;

use crate::cluster::Cluster;
use crate::maintenance::{DemoteConfig, MaintenancePolicy};

/// The tier-demotion policy (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct Demote {
    cfg: DemoteConfig,
}

impl Demote {
    /// Builds the policy from its configuration.
    pub fn new(cfg: DemoteConfig) -> Demote {
        Demote { cfg }
    }
}

impl MaintenancePolicy for Demote {
    fn name(&self) -> &'static str {
        "demote"
    }

    fn interval_ns(&self, _cl: &Cluster) -> SimTime {
        self.cfg.interval_ns
    }

    fn init_state(&self) -> Box<dyn Any + Send> {
        // Stateless: the "cursor" is whatever parity still sits on flash.
        Box::new(())
    }

    fn tick(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, _slot: usize) -> Option<SimTime> {
        let now = sim.now();
        let code = cl.cfg.code;

        // First parity block still homed on a live flash node, in
        // (node, offset) order — deterministic.
        let mut pick = None;
        'nodes: for node in 0..cl.cfg.nodes {
            if cl.nodes[node].failed || !cl.cfg.fleet.is_ssd(node) {
                continue;
            }
            for (addr, dev_off) in cl.layout.blocks_on(node) {
                if !addr.is_data(code) {
                    pick = Some((node, addr, dev_off));
                    break 'nodes;
                }
            }
        }
        let (node, addr, dev_off) = pick?;

        // The least-written live spindle takes it. Fill barely moves per
        // demotion (one block on an 8 GiB spindle), so a fill-based pick
        // would tie-break onto the same HDD forever; bytes written move
        // with every demotion, rotating the target across the spindles
        // and spreading both the writes and the future recycle reads.
        let mut target: Option<usize> = None;
        let mut best = u64::MAX;
        for i in 0..cl.cfg.nodes {
            if cl.nodes[i].failed || cl.cfg.fleet.is_ssd(i) {
                continue;
            }
            let w = cl.nodes[i].disk.wear_bytes();
            if w < best {
                best = w;
                target = Some(i);
            }
        }
        let target = target?;

        let span = cl.cfg.block_bytes + cl.cfg.method.parity_reserved_bytes(&cl.cfg);
        let t_read = cl.disk_io(node, now, IoOp::read(dev_off, span, Pattern::Sequential));
        let t_net = cl.send_repair(t_read, node, target, span);
        let new_off = cl.log_offset(target, span);
        let t_write = cl.disk_io(
            target,
            t_net,
            IoOp::write(new_off, span, Pattern::Sequential),
        );
        cl.layout.relocate(addr, target, new_off);
        cl.maint.demoted_bytes += span;
        Some(t_write)
    }
}
