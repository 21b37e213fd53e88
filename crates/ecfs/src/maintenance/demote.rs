//! Tier-aware log demotion: the paper's §5.4 placement insight run as a
//! continuous policy instead of a static fleet choice.
//!
//! TSUE's observation is that only the synchronous DataLog append sits
//! on the client's critical path — everything downstream (recycle
//! folds, parity deltas) is background sequential I/O a spindle handles
//! fine. On a mixed fleet this policy therefore (a) drains parity
//! blocks — recycle targets, never read synchronously — from flash
//! nodes to the least-written spindle node, one block per tick, and (b)
//! pins TSUE's replica append to flash nodes
//! ([`crate::maintenance::MaintState::pin_appends`]) so the
//! two-append critical path never waits on a seek.
//!
//! The policy keeps no state (`Policy::Demote` is a bare variant): its
//! cursor is whatever parity still sits on flash.

use simdes::units::MILLIS;
use simdes::{Sim, SimTime};

use crate::cluster::Cluster;

/// Pacing interval between demotion moves.
pub(crate) const INTERVAL_NS: SimTime = 4 * MILLIS;

/// Moves the first parity block still on a live flash node to the
/// least-written live spindle.
pub(crate) fn tick(sim: &mut Sim<Cluster>, cl: &mut Cluster) -> Option<SimTime> {
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

    let t_write = cl.move_block(now, addr, node, dev_off, target);
    cl.maint.demoted_bytes += cl.layout.span(addr);
    Some(t_write)
}
