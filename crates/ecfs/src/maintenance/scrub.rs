//! Periodic scrubbing: sweep the placed blocks at a configured media
//! rate, detect latent sector errors against the per-device LSE oracle,
//! and repair hits through the normal `crate::recovery::rebuild_block`
//! path.
//!
//! The scrubber is the canary the LSE model exists for: field studies
//! show latent errors are only ever *found by reads*, so a cluster that
//! never scrubs discovers them at the worst possible moment — during a
//! rebuild, when the stripe has already lost a block. Each tick reads
//! one whole block (sequential, competing with foreground traffic on
//! the same device queue); when the read crosses an onset error site
//! the block is decoded from `k` survivors and rewritten, and the site
//! is marked repaired.
//!
//! The policy's state, carried in its `Policy::Scrub` variant, is its
//! configuration and a round-robin `(node, block index)` cursor.

use simdes::units::SECS;
use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use crate::cluster::Cluster;
use crate::maintenance::ScrubConfig;

/// The periodic-scrub policy (see module docs) and its round-robin
/// position over (node, block index).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scrub {
    cfg: ScrubConfig,
    node: usize,
    idx: usize,
}

impl Scrub {
    /// Builds the policy from its configuration, its cursor at node 0's
    /// first block.
    pub(crate) fn new(cfg: ScrubConfig) -> Scrub {
        Scrub {
            cfg,
            node: 0,
            idx: 0,
        }
    }

    /// Pacing interval: one block per tick at `bytes_per_sec` of scanned
    /// media.
    pub(crate) fn interval_ns(&self, cl: &Cluster) -> SimTime {
        (cl.cfg.block_bytes * SECS / self.cfg.bytes_per_sec.max(1)).max(1)
    }

    /// Scans the next placed block at or after the cursor and repairs any
    /// latent errors it crosses.
    pub(crate) fn tick(&mut self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> Option<SimTime> {
        let now = sim.now();
        let n = cl.cfg.nodes;
        let block_bytes = cl.cfg.block_bytes;
        let (mut node, mut idx) = (self.node, self.idx);

        // Find the next placed block at or after the cursor, skipping
        // failed nodes and exhausted ones.
        let mut hops = 0;
        let pick = loop {
            if hops > n {
                break None;
            }
            if cl.nodes[node].failed {
                node = (node + 1) % n;
                idx = 0;
                hops += 1;
                continue;
            }
            let blocks = cl.layout.blocks_on(node);
            if idx >= blocks.len() {
                node = (node + 1) % n;
                idx = 0;
                hops += 1;
                continue;
            }
            break Some(blocks[idx]);
        };

        let result = pick.map(|(addr, dev_off)| {
            let t_read = cl.disk_io(
                node,
                now,
                IoOp::read(dev_off, block_bytes, Pattern::Sequential),
            );
            cl.maint.scrub_bytes += block_bytes;
            cl.maint.scrub_blocks += 1;
            let found = cl.nodes[node].disk.scrub_lse(now, dev_off, block_bytes);
            let mut done = t_read;
            if found > 0 {
                cl.maint.lse_found += found as u64;
                // Repair through the ordinary rebuild path: decode from
                // k survivors, rewrite (the layout may re-home the
                // block), then mark the old extent's sites repaired.
                if let Ok(t_rebuilt) = crate::recovery::rebuild_block(cl, addr, t_read) {
                    let cleared = cl.nodes[node].disk.clear_lse(dev_off, block_bytes);
                    cl.maint.lse_repaired += cleared as u64;
                    done = t_rebuilt;
                }
            }
            idx += 1;
            done
        });

        self.node = node;
        self.idx = idx;
        result
    }
}
