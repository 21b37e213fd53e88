//! Failure recovery: post-replay drills (Fig. 8b) and the mid-replay
//! fault timeline — failures injected while clients are still issuing,
//! with a repair scheduler whose rebuild streams compete with foreground
//! traffic on the same disks and fabric. Both rebuild every lost block
//! through one path, `rebuild_block`: `k` survivors chosen by
//! `select_survivors`, a live target from
//! `Cluster::next_live_target`, and transfers booked as repair traffic
//! ([`simnet::FlowClass::Repair`]). A drill books its rebuilds from the
//! end of its drain on an otherwise idle cluster.
//!
//! The paper's §2.3.2 argument materialises here: methods that defer log
//! recycling must replay their logs *before* reconstruction can start, so
//! their effective recovery bandwidth drops; TSUE's real-time recycling
//! leaves almost nothing to drain and recovers at FO-like speed.
//!
//! Rack drills add the topology dimension: whether a rack failure is
//! recoverable at all depends on the [`crate::placement::Placement`]
//! (rack-aware placement bounds a stripe's per-rack block count; the flat
//! default does not), and the rebuild streams cross the spine, so the
//! drill reports its spine traffic alongside the timing breakdown.
//!
//! Every survivor read and rebuilt-block write books against the owning
//! node's **own** device from the per-node [`crate::DiskFleet`] — on a
//! heterogeneous fleet a rebuild targeting an HDD node runs at that
//! spindle's rate while flash survivors stream at theirs, so repair rates
//! reflect the *target* disk rather than one cluster-wide model.
//!
//! Mid-replay, [`inject_fault`] marks the scope dead and schedules
//! repair on the shared [`Sim`] timeline: after the plan's detection lag,
//! the method's outstanding log backlog is replayed
//! ([`crate::methods::drain_until`], the §2.3.2 gate), then
//! lost blocks rebuild one per event — every survivor read, repair
//! transfer ([`simnet::FlowClass::Repair`]), and rebuilt-block write is
//! booked at the simulation present, so it genuinely queues against
//! client I/O. Ops that reach a dead block in the meantime take the
//! degraded paths in [`crate::methods`].
//!
//! Modeling simplification: log state held by a dead node is treated as
//! recoverable (TSUE replicates its DataLog; the other methods' logs
//! stand in for journals with equivalent durability). TSUE's §2.3.2
//! replay scan is charged to the disks that actually perform it — a dead
//! node's backlog is re-read on its *replica holder*, whose queue then
//! contends with the foreground and repair traffic it is serving
//! (re-replicating the replica chain itself remains future work).
//!
//! A rebuild's *target* can also die while the rebuild is in flight
//! (overlapping faults): the pump re-checks the block's home at
//! completion and re-queues it for a fresh rebuild onto a live node
//! instead of declaring a dead-node write a repair.

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use crate::cluster::Cluster;
use crate::fault::{FaultScope, InjectedFault};
use crate::layout::BlockAddr;
use crate::methods;

/// Outcome of a recovery drill.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryResult {
    /// Blocks rebuilt.
    pub blocks: usize,
    /// Bytes rebuilt.
    pub rebuilt_bytes: u64,
    /// Seconds spent draining logs before reconstruction.
    pub drain_s: f64,
    /// Seconds spent reconstructing.
    pub rebuild_s: f64,
    /// Effective recovery bandwidth, MiB/s, over drain + rebuild.
    pub bandwidth_mib_s: f64,
    /// Spine (cross-rack) traffic the drill itself generated, GiB. Zero on
    /// a flat topology.
    pub cross_rack_gib: f64,
}

/// A block that cannot be reconstructed: the failure scope ate into its
/// stripe beyond the code's `m`-erasure budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryError {
    /// The unreconstructible block.
    pub addr: BlockAddr,
    /// Survivors available for its stripe.
    pub survivors: usize,
    /// Survivors needed (`k`).
    pub needed: usize,
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data loss: block {:?} has {} survivors but reconstruction needs {}",
            self.addr, self.survivors, self.needed
        )
    }
}

impl std::error::Error for RecoveryError {}

/// The Fig. 8b drill: drains logs, fails `node`, and reconstructs its
/// blocks onto the other nodes, each block's target picked by
/// `Cluster::next_live_target` as the repair pump picks it. Returns the
/// timing breakdown.
///
/// # Panics
/// Panics if some stripe cannot be reconstructed (impossible for a single
/// node failure with `m >= 1`; use [`recover_scope`] for fallible drills).
pub fn recover_node(sim: &mut Sim<Cluster>, cl: &mut Cluster, node: usize) -> RecoveryResult {
    recover_scope(sim, cl, &[node]).expect("not enough survivors")
}

/// The top-of-rack-switch / PDU failure drill: drains outstanding logs
/// (the §2.3.2 consistency prerequisite — charged to the recovery clock,
/// like every drill here), then fails every node in `rack` simultaneously
/// and reconstructs cross-rack. Fails with [`RecoveryError`] when the
/// placement policy left more than `m` blocks of some stripe in the rack.
pub fn recover_rack(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    rack: usize,
) -> Result<RecoveryResult, RecoveryError> {
    let victims: Vec<usize> = cl.layout.racks().members(rack).to_vec();
    recover_scope(sim, cl, &victims)
}

/// The general drill: drains logs, fails an arbitrary set of nodes, and
/// rebuilds every lost block through `rebuild_block` — the repair
/// pump's path — re-homing each on a live node. Drills compose: nodes
/// failed by earlier drills stay failed, and blocks they lost are found
/// at their rebuild targets.
pub fn recover_scope(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    victims: &[usize],
) -> Result<RecoveryResult, RecoveryError> {
    assert!(!victims.is_empty(), "recovery needs a failure scope");
    let cross_before = cl.net.traffic().cross_rack_bytes();

    // Phase 1: logs must be consistent before reconstruction (§2.3.2).
    let drain_start = sim.now();
    methods::drain_all(sim, cl);
    let drain_end = sim.now();

    for &v in victims {
        cl.nodes[v].failed = true;
    }
    cl.faults.degraded_mode = true;
    assert!(
        cl.nodes.iter().any(|n| !n.failed),
        "cannot fail every node in the cluster"
    );
    let mut lost = Vec::new();
    for &v in victims {
        lost.extend(cl.layout.blocks_on(v).into_iter().map(|(a, _)| a));
    }

    // Every stripe must still be reconstructible before any I/O is booked.
    for &addr in &lost {
        select_survivors(cl, addr)?;
    }

    // Phase 2: rebuild each lost block from k survivors onto a live node.
    let mut t_end = drain_end;
    for &addr in &lost {
        t_end = t_end.max(rebuild_block(cl, addr, drain_end)?);
    }

    let rebuilt = lost.len() as u64 * cl.cfg.block_bytes;
    let drain_s = simdes::units::as_secs_f64(drain_end.saturating_sub(drain_start));
    let rebuild_s = simdes::units::as_secs_f64(t_end.saturating_sub(drain_end));
    let total_s = drain_s + rebuild_s;
    let cross_after = cl.net.traffic().cross_rack_bytes();
    Ok(RecoveryResult {
        blocks: lost.len(),
        rebuilt_bytes: rebuilt,
        drain_s,
        rebuild_s,
        bandwidth_mib_s: if total_s > 0.0 {
            rebuilt as f64 / (1 << 20) as f64 / total_s
        } else {
            0.0
        },
        cross_rack_gib: (cross_after - cross_before) as f64 / (1u64 << 30) as f64,
    })
}

/// Injects a failure *now*, mid-replay: marks the scope's nodes dead (ops
/// reaching them take the degraded path from this instant) and schedules
/// the repair to start after the fault plan's detection lag.
pub fn inject_fault(sim: &mut Sim<Cluster>, cl: &mut Cluster, scope: FaultScope) {
    let victims: Vec<usize> = match scope {
        FaultScope::Node(n) => vec![n],
        FaultScope::Rack(r) => cl.layout.racks().members(r).to_vec(),
    }
    .into_iter()
    .filter(|&v| !cl.nodes[v].failed)
    .collect();
    cl.faults.degraded_mode = true;
    for &v in &victims {
        cl.nodes[v].failed = true;
    }
    assert!(
        cl.nodes.iter().any(|n| !n.failed),
        "fault injection killed every node"
    );
    let idx = cl.faults.injected.len();
    cl.faults.injected.push(InjectedFault {
        at: sim.now(),
        victims,
        outstanding: 0,
        repair_done: None,
    });
    let delay = cl.faults.recovery_delay;
    sim.schedule(delay, move |sim, cl: &mut Cluster| {
        repair_start(sim, cl, idx);
    });
}

/// Starts the repair of injected fault `idx`: replays the log backlog
/// outstanding now (the §2.3.2 consistency gate — deferred-recycling
/// methods pay their whole backlog here, on a cluster still serving
/// clients), then enqueues the lost blocks for the rebuild pump.
fn repair_start(sim: &mut Sim<Cluster>, cl: &mut Cluster, idx: usize) {
    let gate = methods::drain_until(sim, cl);
    sim.schedule_at(gate.max(sim.now()), move |sim, cl: &mut Cluster| {
        enqueue_rebuilds(sim, cl, idx);
    });
}

fn enqueue_rebuilds(sim: &mut Sim<Cluster>, cl: &mut Cluster, idx: usize) {
    let victims = cl.faults.injected[idx].victims.clone();
    let mut lost: Vec<BlockAddr> = Vec::new();
    for v in victims {
        lost.extend(cl.layout.blocks_on(v).into_iter().map(|(a, _)| a));
    }
    if lost.is_empty() {
        let now = sim.now();
        cl.faults.injected[idx].repair_done = Some(now);
        return;
    }
    cl.faults.injected[idx].outstanding = lost.len();
    for addr in lost {
        cl.faults.queue.push_back((addr, idx));
    }
    pump_repair(sim, cl);
}

/// The rebuild pump: one lost block per event, so every booking lands at
/// the simulation present and queues against foreground I/O on the shared
/// disk and fabric resources. The next block starts when this one's
/// rebuild completes — or later, when the fault plan throttles repair
/// bandwidth.
fn pump_repair(sim: &mut Sim<Cluster>, cl: &mut Cluster) {
    if cl.faults.pump_active {
        return;
    }
    // Loop (not recursion): a rack failure can queue thousands of blocks
    // that are skipped (already re-homed inline) or unrecoverable in a
    // row, and each costs no simulated time.
    loop {
        let Some((addr, idx)) = cl.faults.queue.pop_front() else {
            return;
        };
        let now = sim.now();
        // An inline (write-triggered) rebuild may have re-homed the block
        // already; data-loss blocks are recorded and skipped.
        let home = cl.layout.current_node(addr);
        if !cl.nodes[home].failed {
            cl.faults.block_done(idx, now);
            continue;
        }
        match rebuild_block(cl, addr, now) {
            Ok(t_done) => {
                cl.faults.pump_active = true;
                let next = match cl.faults.repair_bandwidth {
                    Some(bw) => {
                        let pace = cl.cfg.block_bytes * simdes::units::SECS / bw.max(1);
                        t_done.max(now + pace)
                    }
                    None => t_done,
                };
                sim.schedule_at(next.max(now), move |sim, cl: &mut Cluster| {
                    cl.faults.pump_active = false;
                    // The rebuild target may itself have died while the
                    // rebuild was in flight (overlapping faults): the
                    // block is then still lost — re-queue it so the next
                    // pump round re-targets it onto a live node instead
                    // of declaring a dead-node write a repair.
                    if cl.nodes[cl.layout.current_node(addr)].failed {
                        cl.faults.retargeted_rebuilds += 1;
                        cl.faults.queue.push_back((addr, idx));
                    } else {
                        cl.faults.repaired_blocks += 1;
                        cl.faults.repaired_bytes += cl.cfg.block_bytes;
                        cl.faults.block_done(idx, sim.now());
                    }
                    pump_repair(sim, cl);
                });
                return;
            }
            Err(_) => {
                cl.faults.data_loss_blocks += 1;
                cl.faults.block_done(idx, now);
            }
        }
    }
}

/// Rebuilds one lost block from `k` survivors onto a live target and
/// re-homes it in the layout, booking every read, repair transfer, and
/// write starting at `from` on the shared resources. Returns the rebuild
/// completion time, or the data-loss report when fewer than `k` survivors
/// remain.
///
/// Shared by the background repair pump and the degraded write path
/// (write-triggered inline rebuilds).
pub(crate) fn rebuild_block(
    cl: &mut Cluster,
    addr: BlockAddr,
    from: SimTime,
) -> Result<SimTime, RecoveryError> {
    let block_bytes = cl.cfg.block_bytes;
    let survivors = select_survivors(cl, addr)?;
    let home = cl.layout.current_node(addr);
    let target = cl.next_live_target(home);
    let mut ready = from;
    for saddr in survivors {
        let (snode, sdev) = cl.layout.locate(saddr);
        let t_read = cl.disk_io(
            snode,
            from,
            IoOp::read(sdev, block_bytes, Pattern::Sequential),
        );
        let t_net = cl.send_repair(t_read, snode, target, block_bytes);
        ready = ready.max(t_net);
    }
    // Decode (matrix multiply) is bandwidth-bound on memory: charge a
    // small per-byte cost, then write the rebuilt block. A parity block
    // re-allocates its method-reserved adjacent extent (PLR's log space)
    // at the new home, so reserved-region replays stay within bounds.
    let decode_ns = block_bytes / 10; // ~10 bytes per ns ≈ 10 GB/s
    let t_write = cl.rehome(ready + decode_ns, addr, target, block_bytes);
    cl.trace_child(crate::telemetry::Stage::Repair, target, from, t_write);
    Ok(t_write)
}

/// Picks `k` surviving blocks of `addr`'s stripe (live current homes, in
/// stripe-index order — the deterministic selection shared by the repair
/// pump, inline rebuilds, and degraded reads), or reports data loss.
pub(crate) fn select_survivors(
    cl: &mut Cluster,
    addr: BlockAddr,
) -> Result<Vec<BlockAddr>, RecoveryError> {
    let k = cl.cfg.code.k();
    let mut survivors = Vec::with_capacity(k);
    for idx in 0..cl.cfg.code.total() as u16 {
        if idx == addr.index {
            continue;
        }
        let saddr = BlockAddr {
            volume: addr.volume,
            stripe: addr.stripe,
            index: idx,
        };
        if cl.nodes[cl.layout.current_node(saddr)].failed {
            continue;
        }
        survivors.push(saddr);
        if survivors.len() == k {
            break;
        }
    }
    if survivors.len() < k {
        return Err(RecoveryError {
            addr,
            survivors: survivors.len(),
            needed: k,
        });
    }
    Ok(survivors)
}
