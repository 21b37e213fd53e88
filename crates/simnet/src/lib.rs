//! Cluster network model: a hierarchical, topology-aware fabric with
//! cut-through message timing and per-tier traffic accounting.
//!
//! Stands in for the paper's 25 Gb/s Ethernet (SSD testbed) and 40 Gb/s
//! InfiniBand (HDD testbed) fabrics. Each endpoint owns an egress and an
//! ingress [`simdes::Resource`]; endpoints are grouped into racks by a
//! [`Topology`], and each rack owns an uplink/downlink resource pair toward
//! the spine whose bandwidth is the rack's aggregate endpoint bandwidth
//! divided by a configurable oversubscription ratio.
//!
//! An intra-rack message serialises on the sender's egress and flows
//! cut-through into the receiver's ingress — exactly the paper's
//! single-switch fabric. A cross-rack message additionally reserves the
//! source rack's uplink and the destination rack's downlink, so an
//! oversubscribed spine becomes a real shared bottleneck. The
//! [`TrafficMatrix`] accounts bytes and messages per endpoint pair *and*
//! per tier (intra-rack vs cross-rack), so rack-locality effects — Table 1
//! traffic, recovery costs — fall out of the same replay.
//!
//! The default [`Topology::flat`] (one rack) takes the identical code path
//! and books the identical reservations as the pre-topology fabric, so
//! single-switch results are bit-for-bit unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simdes::{Resource, SimTime};

/// Endpoint → rack assignment plus the spine oversubscription ratio.
///
/// Racks are numbered `0..racks()`; every rack must contain at least one
/// endpoint. An oversubscription ratio of `r` means a rack's uplink carries
/// `members × bandwidth / r` bytes per second — `1.0` is a full-bisection
/// fabric, larger values starve the spine.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    rack_of: Vec<usize>,
    racks: usize,
    oversubscription: f64,
}

impl Topology {
    /// Everything in one rack — the paper's single-switch testbeds. No
    /// message crosses the spine, so the fabric behaves exactly like a flat
    /// switch.
    pub fn flat(endpoints: usize) -> Topology {
        Topology {
            rack_of: vec![0; endpoints],
            racks: 1,
            oversubscription: 1.0,
        }
    }

    /// A racked topology from an explicit endpoint → rack assignment.
    ///
    /// # Panics
    /// Panics if the assignment is empty, a rack id below the maximum is
    /// unused, or `oversubscription` is not a finite ratio `>= 1.0`.
    pub fn racked(rack_of: Vec<usize>, oversubscription: f64) -> Topology {
        assert!(!rack_of.is_empty(), "topology needs endpoints");
        assert!(
            oversubscription.is_finite() && oversubscription >= 1.0,
            "oversubscription must be a finite ratio >= 1.0"
        );
        let racks = rack_of.iter().max().copied().unwrap_or(0) + 1;
        let mut seen = vec![false; racks];
        for &r in &rack_of {
            seen[r] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "every rack id below the maximum must host an endpoint"
        );
        Topology {
            rack_of,
            racks,
            oversubscription,
        }
    }

    /// Number of endpoints.
    pub fn endpoints(&self) -> usize {
        self.rack_of.len()
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Whether this is a single-rack (flat) fabric.
    pub fn is_flat(&self) -> bool {
        self.racks == 1
    }

    /// The rack hosting endpoint `ep`.
    pub fn rack_of(&self, ep: usize) -> usize {
        self.rack_of[ep]
    }

    /// Endpoints in rack `rack`.
    pub fn members(&self, rack: usize) -> usize {
        self.rack_of.iter().filter(|&&r| r == rack).count()
    }

    /// Whether a `src → dst` message crosses the spine.
    pub fn crosses_spine(&self, src: usize, dst: usize) -> bool {
        self.rack_of[src] != self.rack_of[dst]
    }

    /// The configured oversubscription ratio.
    pub fn oversubscription(&self) -> f64 {
        self.oversubscription
    }
}

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Number of endpoints (OSDs + clients + MDS).
    pub endpoints: usize,
    /// Per-direction link bandwidth in bytes per second.
    pub bandwidth: u64,
    /// Fixed per-message overhead (NIC + stack + propagation).
    pub rpc_overhead: SimTime,
    /// Rack structure; must cover exactly `endpoints` endpoints.
    pub topology: Topology,
}

impl NetConfig {
    /// 25 Gb/s Ethernet with a 30 µs RPC overhead (the paper's SSD testbed).
    pub fn ethernet_25g(endpoints: usize) -> NetConfig {
        NetConfig {
            endpoints,
            bandwidth: 25_000_000_000 / 8,
            rpc_overhead: 30 * simdes::units::MICROS,
            topology: Topology::flat(endpoints),
        }
    }

    /// 40 Gb/s InfiniBand with a 5 µs overhead (the paper's HDD testbed).
    pub fn infiniband_40g(endpoints: usize) -> NetConfig {
        NetConfig {
            endpoints,
            bandwidth: 40_000_000_000 / 8,
            rpc_overhead: 5 * simdes::units::MICROS,
            topology: Topology::flat(endpoints),
        }
    }

    /// Replaces the topology (builder-style).
    pub fn with_topology(mut self, topology: Topology) -> NetConfig {
        self.topology = topology;
        self
    }
}

/// The class of a bulk transfer: foreground (client-visible work) or
/// repair (rebuild streams competing with it). Classes share the exact
/// same link/rack/spine resources — the class only tags the *accounting*,
/// so a replay can report how much of the fabric the rebuild consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowClass {
    /// Client-visible traffic (the default for [`Network::send`]).
    #[default]
    Foreground,
    /// Background rebuild/repair streams.
    Repair,
}

/// Accumulated traffic between endpoint pairs, tiered by rack locality
/// and split by [`FlowClass`].
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    bytes: Vec<u64>,
    messages: Vec<u64>,
    /// `[intra-rack, cross-rack]` byte totals.
    tier_bytes: [u64; 2],
    /// `[intra-rack, cross-rack]` message totals.
    tier_messages: [u64; 2],
    /// `[foreground, repair]` byte totals.
    class_bytes: [u64; 2],
    /// `[foreground, repair]` message totals.
    class_messages: [u64; 2],
}

impl TrafficMatrix {
    fn new(n: usize) -> TrafficMatrix {
        TrafficMatrix {
            n,
            bytes: vec![0; n * n],
            messages: vec![0; n * n],
            tier_bytes: [0; 2],
            tier_messages: [0; 2],
            class_bytes: [0; 2],
            class_messages: [0; 2],
        }
    }

    /// Bytes sent from `src` to `dst`.
    pub fn bytes(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.n + dst]
    }

    /// Messages sent from `src` to `dst`.
    pub fn messages(&self, src: usize, dst: usize) -> u64 {
        self.messages[src * self.n + dst]
    }

    /// Total bytes over the fabric.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total messages over the fabric.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().sum()
    }

    /// Bytes that stayed within one rack.
    pub fn intra_rack_bytes(&self) -> u64 {
        self.tier_bytes[0]
    }

    /// Bytes that crossed the spine.
    pub fn cross_rack_bytes(&self) -> u64 {
        self.tier_bytes[1]
    }

    /// Messages that stayed within one rack.
    pub fn intra_rack_messages(&self) -> u64 {
        self.tier_messages[0]
    }

    /// Messages that crossed the spine.
    pub fn cross_rack_messages(&self) -> u64 {
        self.tier_messages[1]
    }

    /// Total bytes in GiB.
    pub fn total_gib(&self) -> f64 {
        self.total_bytes() as f64 / (1u64 << 30) as f64
    }

    /// Spine-crossing bytes in GiB.
    pub fn cross_rack_gib(&self) -> f64 {
        self.cross_rack_bytes() as f64 / (1u64 << 30) as f64
    }

    /// Bytes carried for foreground (client-visible) flows.
    pub fn foreground_bytes(&self) -> u64 {
        self.class_bytes[0]
    }

    /// Bytes carried for repair (rebuild) flows.
    pub fn repair_bytes(&self) -> u64 {
        self.class_bytes[1]
    }

    /// Messages carried for foreground flows.
    pub fn foreground_messages(&self) -> u64 {
        self.class_messages[0]
    }

    /// Messages carried for repair flows.
    pub fn repair_messages(&self) -> u64 {
        self.class_messages[1]
    }

    /// Repair bytes in GiB.
    pub fn repair_gib(&self) -> f64 {
        self.repair_bytes() as f64 / (1u64 << 30) as f64
    }

    fn record(&mut self, src: usize, dst: usize, bytes: u64, cross: bool, class: FlowClass) {
        self.bytes[src * self.n + dst] += bytes;
        self.messages[src * self.n + dst] += 1;
        let tier = cross as usize;
        self.tier_bytes[tier] += bytes;
        self.tier_messages[tier] += 1;
        let cls = (class == FlowClass::Repair) as usize;
        self.class_bytes[cls] += bytes;
        self.class_messages[cls] += 1;
    }
}

/// The fabric connecting all endpoints: per-endpoint full-duplex links
/// behind top-of-rack switches, joined by a (possibly oversubscribed)
/// spine.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NetConfig,
    egress: Vec<Resource>,
    ingress: Vec<Resource>,
    /// Per-rack uplink toward the spine (unused in a flat topology).
    uplink: Vec<Resource>,
    /// Per-rack downlink from the spine.
    downlink: Vec<Resource>,
    /// Per-rack uplink bandwidth, bytes per second.
    rack_bw: Vec<u64>,
    traffic: TrafficMatrix,
}

impl Network {
    /// Builds the fabric.
    ///
    /// # Panics
    /// Panics if `endpoints == 0`, `bandwidth == 0`, or the topology does
    /// not cover exactly `endpoints` endpoints.
    pub fn new(cfg: NetConfig) -> Network {
        assert!(cfg.endpoints > 0, "network needs endpoints");
        assert!(cfg.bandwidth > 0, "network needs bandwidth");
        assert_eq!(
            cfg.topology.endpoints(),
            cfg.endpoints,
            "topology must cover every endpoint"
        );
        let racks = cfg.topology.racks();
        let rack_bw = (0..racks)
            .map(|r| {
                let agg = cfg.topology.members(r) as f64 * cfg.bandwidth as f64;
                ((agg / cfg.topology.oversubscription()) as u64).max(1)
            })
            .collect();
        Network {
            egress: (0..cfg.endpoints).map(|_| Resource::new(1)).collect(),
            ingress: (0..cfg.endpoints).map(|_| Resource::new(1)).collect(),
            uplink: (0..racks).map(|_| Resource::new(1)).collect(),
            downlink: (0..racks).map(|_| Resource::new(1)).collect(),
            rack_bw,
            traffic: TrafficMatrix::new(cfg.endpoints),
            cfg,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// The rack structure.
    pub fn topology(&self) -> &Topology {
        &self.cfg.topology
    }

    /// The traffic matrix accumulated so far.
    pub fn traffic(&self) -> &TrafficMatrix {
        &self.traffic
    }

    /// Pure serialisation time of `bytes` on one endpoint link.
    pub fn wire_time(&self, bytes: u64) -> SimTime {
        bytes * simdes::units::SECS / self.cfg.bandwidth
    }

    /// Serialisation time of `bytes` on `rack`'s spine uplink/downlink.
    pub fn rack_wire_time(&self, rack: usize, bytes: u64) -> SimTime {
        bytes * simdes::units::SECS / self.rack_bw[rack]
    }

    /// Sends `bytes` from `src` to `dst` starting at `now`; returns the
    /// delivery time at `dst`.
    ///
    /// Local sends (`src == dst`) are free and uncounted: they model
    /// intra-process hand-offs, which the paper's traffic numbers exclude.
    /// Cross-rack sends additionally reserve the source rack's uplink and
    /// the destination rack's downlink, cut-through: each hop's busy window
    /// starts when the first byte leaves the previous hop.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints.
    pub fn send(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> SimTime {
        self.send_classed(now, src, dst, bytes, FlowClass::Foreground)
    }

    /// [`Self::send`] with an explicit [`FlowClass`]. Repair flows reserve
    /// the *same* egress/uplink/downlink/ingress resources as foreground
    /// traffic — background rebuilds genuinely compete for the fabric —
    /// and differ only in which accounting bucket they land in.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints.
    pub fn send_classed(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
        class: FlowClass,
    ) -> SimTime {
        assert!(
            src < self.cfg.endpoints && dst < self.cfg.endpoints,
            "endpoint out of range"
        );
        if src == dst {
            return now;
        }
        let cross = self.cfg.topology.crosses_spine(src, dst);
        self.traffic.record(src, dst, bytes, cross, class);
        let dur = self.wire_time(bytes);
        let tx_end = self.egress[src].reserve(now, dur);
        let (spine_end, spine_dur) = if cross {
            let up_dur = self.rack_wire_time(self.cfg.topology.rack_of(src), bytes);
            let up_end = self.uplink[self.cfg.topology.rack_of(src)]
                .reserve(tx_end.saturating_sub(dur), up_dur);
            let down_dur = self.rack_wire_time(self.cfg.topology.rack_of(dst), bytes);
            let down_end = self.downlink[self.cfg.topology.rack_of(dst)]
                .reserve(up_end.saturating_sub(up_dur), down_dur);
            (down_end, down_dur)
        } else {
            (tx_end, dur)
        };
        // Cut-through into the receiver: its link is busy for the full
        // serialisation time, overlapping the tail of the previous hop —
        // but delivery can never precede the last byte clearing the spine
        // (a starved downlink, slower than the endpoint link, is the
        // bottleneck even with an idle receiver).
        let rx_end = self.ingress[dst].reserve(spine_end.saturating_sub(spine_dur), dur);
        rx_end.max(spine_end) + self.cfg.rpc_overhead
    }

    /// Delivery time for a zero-payload control message (pure RPC).
    ///
    /// Control messages are tiny and NIC/switch QoS lets them interleave
    /// with bulk transfers, so they are charged the RPC overhead and wire
    /// time without queueing on the link resources. Crossing the spine adds
    /// a second switch hop, so cross-rack RPCs pay the overhead twice.
    pub fn rpc(&mut self, now: SimTime, src: usize, dst: usize) -> SimTime {
        assert!(
            src < self.cfg.endpoints && dst < self.cfg.endpoints,
            "endpoint out of range"
        );
        if src == dst {
            return now;
        }
        let cross = self.cfg.topology.crosses_spine(src, dst);
        self.traffic
            .record(src, dst, 64, cross, FlowClass::Foreground);
        let hops = if cross { 2 } else { 1 };
        now + self.wire_time(64) + hops * self.cfg.rpc_overhead
    }

    /// Busy time booked on an endpoint's egress link (diagnostics).
    pub fn egress_busy(&self, ep: usize) -> u64 {
        self.egress[ep].busy_time()
    }

    /// Busy time booked on a rack's spine uplink (diagnostics).
    pub fn uplink_busy(&self, rack: usize) -> u64 {
        self.uplink[rack].busy_time()
    }

    /// Busy time booked on a rack's spine downlink (diagnostics).
    pub fn downlink_busy(&self, rack: usize) -> u64 {
        self.downlink[rack].busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdes::units::{MICROS, SECS};

    fn net(n: usize) -> Network {
        Network::new(NetConfig::ethernet_25g(n))
    }

    /// Two racks of two endpoints each: {0, 1} and {2, 3}.
    fn racked_net(oversub: f64) -> Network {
        Network::new(
            NetConfig::ethernet_25g(4).with_topology(Topology::racked(vec![0, 0, 1, 1], oversub)),
        )
    }

    #[test]
    fn small_message_dominated_by_rpc_overhead() {
        let mut n = net(2);
        let t = n.send(0, 0, 1, 64);
        assert!(t >= 30 * MICROS);
        assert!(t < 40 * MICROS, "delivery {t}");
    }

    #[test]
    fn large_message_dominated_by_bandwidth() {
        let mut n = net(2);
        let bytes = 1u64 << 30; // 1 GiB at 25 Gb/s ~ 0.34 s
        let t = n.send(0, 0, 1, bytes);
        let ideal = bytes * SECS / (25_000_000_000 / 8);
        assert!(t >= ideal);
        assert!(t < ideal + ideal / 4, "delivery {t} vs ideal {ideal}");
    }

    #[test]
    fn self_send_is_free_and_uncounted() {
        let mut n = net(2);
        assert_eq!(n.send(123, 1, 1, 1 << 20), 123);
        assert_eq!(n.traffic().total_bytes(), 0);
    }

    #[test]
    fn egress_contention_serialises() {
        let mut n = net(3);
        let bytes = 100 << 20;
        let t1 = n.send(0, 0, 1, bytes);
        let t2 = n.send(0, 0, 2, bytes);
        assert!(t2 >= t1 + n.wire_time(bytes) - 1, "t1 {t1} t2 {t2}");
    }

    #[test]
    fn ingress_contention_serialises() {
        let mut n = net(3);
        let bytes = 100 << 20;
        let t1 = n.send(0, 0, 2, bytes);
        let t2 = n.send(0, 1, 2, bytes);
        assert!(t2 > t1, "two senders into one receiver must queue");
    }

    #[test]
    fn different_pairs_flow_in_parallel() {
        let mut n = net(4);
        let bytes = 100 << 20;
        let t1 = n.send(0, 0, 1, bytes);
        let t2 = n.send(0, 2, 3, bytes);
        assert_eq!(t1, t2, "disjoint pairs share no resource");
    }

    #[test]
    fn traffic_matrix_accounts_by_pair() {
        let mut n = net(3);
        n.send(0, 0, 1, 1000);
        n.send(0, 0, 1, 500);
        n.send(0, 2, 0, 42);
        assert_eq!(n.traffic().bytes(0, 1), 1500);
        assert_eq!(n.traffic().messages(0, 1), 2);
        assert_eq!(n.traffic().bytes(2, 0), 42);
        assert_eq!(n.traffic().total_bytes(), 1542);
        assert_eq!(n.traffic().total_messages(), 3);
    }

    #[test]
    fn flow_classes_partition_totals_and_share_resources() {
        let mut n = net(3);
        let bytes = 100 << 20;
        let t1 = n.send(0, 0, 1, bytes);
        // A repair flow out of the same endpoint queues behind the
        // foreground flow: classes share the egress link.
        let t2 = n.send_classed(0, 0, 2, bytes, FlowClass::Repair);
        assert!(t2 >= t1 + n.wire_time(bytes) - 1, "t1 {t1} t2 {t2}");
        n.rpc(0, 1, 2);
        let t = n.traffic();
        assert_eq!(t.foreground_bytes(), bytes + 64);
        assert_eq!(t.repair_bytes(), bytes);
        assert_eq!(t.foreground_bytes() + t.repair_bytes(), t.total_bytes());
        assert_eq!(t.foreground_messages(), 2);
        assert_eq!(t.repair_messages(), 1);
        assert_eq!(
            t.foreground_messages() + t.repair_messages(),
            t.total_messages()
        );
    }

    #[test]
    fn repair_class_does_not_change_timing() {
        // Identical flows, classed differently, must book identical times:
        // the class is pure accounting.
        let bytes = 64 << 20;
        let mut a = racked_net(2.0);
        let fg = a.send(0, 0, 2, bytes);
        let mut b = racked_net(2.0);
        let rep = b.send_classed(0, 0, 2, bytes, FlowClass::Repair);
        assert_eq!(fg, rep);
        assert_eq!(
            a.traffic().cross_rack_bytes(),
            b.traffic().cross_rack_bytes(),
            "tier accounting is class-independent"
        );
    }

    #[test]
    fn infiniband_has_lower_overhead() {
        let mut ib = Network::new(NetConfig::infiniband_40g(2));
        let mut eth = net(2);
        assert!(ib.send(0, 0, 1, 64) < eth.send(0, 0, 1, 64));
    }

    #[test]
    #[should_panic(expected = "endpoint out of range")]
    fn bad_endpoint_panics() {
        let mut n = net(2);
        n.send(0, 0, 5, 10);
    }

    #[test]
    fn flat_topology_counts_nothing_cross_rack() {
        let mut n = net(3);
        n.send(0, 0, 1, 1000);
        n.rpc(0, 1, 2);
        assert_eq!(n.traffic().cross_rack_bytes(), 0);
        assert_eq!(n.traffic().cross_rack_messages(), 0);
        assert_eq!(n.traffic().intra_rack_bytes(), 1064);
        assert_eq!(n.traffic().intra_rack_messages(), 2);
    }

    #[test]
    fn tiers_partition_totals() {
        let mut n = racked_net(1.0);
        n.send(0, 0, 1, 1000); // intra
        n.send(0, 0, 2, 500); // cross
        n.send(0, 3, 2, 200); // intra
        n.rpc(0, 1, 3); // cross
        let t = n.traffic();
        assert_eq!(t.intra_rack_bytes() + t.cross_rack_bytes(), t.total_bytes());
        assert_eq!(
            t.intra_rack_messages() + t.cross_rack_messages(),
            t.total_messages()
        );
        assert_eq!(t.cross_rack_bytes(), 564);
        assert_eq!(t.cross_rack_messages(), 2);
    }

    #[test]
    fn full_bisection_cross_rack_matches_intra_timing() {
        // With oversubscription 1.0 and idle uplinks, a cross-rack send of a
        // single flow completes at the same time as an intra-rack one (the
        // spine hops run cut-through and are at least as fast as a link).
        let mut n = racked_net(1.0);
        let bytes = 64 << 20;
        let intra = n.send(0, 0, 1, bytes);
        let mut m = racked_net(1.0);
        let cross = m.send(0, 0, 2, bytes);
        assert_eq!(intra, cross);
    }

    #[test]
    fn oversubscribed_uplink_throttles_cross_rack_flows() {
        // Two senders in rack 0 each stream to a different rack-1 receiver:
        // disjoint endpoint links, but a 2:1 uplink forces the flows to
        // share half the aggregate bandwidth — the second delivery lands
        // roughly an uplink-serialisation later than with full bisection.
        let bytes = 100 << 20;
        let mut fat = racked_net(1.0);
        fat.send(0, 0, 2, bytes);
        let fat_t2 = fat.send(0, 1, 3, bytes);
        let mut thin = racked_net(2.0);
        thin.send(0, 0, 2, bytes);
        let thin_t2 = thin.send(0, 1, 3, bytes);
        assert!(
            thin_t2 > fat_t2 + thin.wire_time(bytes) / 4,
            "2:1 spine must delay the second flow: fat {fat_t2} thin {thin_t2}"
        );
        // Intra-rack flows never touch the spine, oversubscribed or not.
        let mut a = racked_net(4.0);
        let mut b = racked_net(1.0);
        assert_eq!(a.send(0, 0, 1, bytes), b.send(0, 0, 1, bytes));
    }

    #[test]
    fn starved_spine_bounds_even_a_single_flow() {
        // With a 16:1 spine the downlink is 8x slower than the endpoint
        // link (2 members x B / 16): one uncontended cross-rack flow must
        // not be delivered before its last byte clears the spine.
        let bytes = 100 << 20;
        let mut thin = racked_net(16.0);
        let t = thin.send(0, 0, 2, bytes);
        let spine = thin.rack_wire_time(1, bytes);
        assert!(spine > thin.wire_time(bytes));
        assert!(
            t >= spine,
            "delivery {t} precedes spine serialisation {spine}"
        );
    }

    #[test]
    fn cross_rack_rpc_pays_extra_hop() {
        let mut n = racked_net(1.0);
        let intra = n.rpc(0, 0, 1);
        let cross = n.rpc(0, 0, 2);
        assert_eq!(cross, intra + 30 * MICROS);
    }

    #[test]
    fn uplink_busy_accounts_spine_time() {
        let mut n = racked_net(1.0);
        assert_eq!(n.uplink_busy(0), 0);
        n.send(0, 0, 2, 50 << 20);
        assert!(n.uplink_busy(0) > 0);
        assert!(n.downlink_busy(1) > 0);
        assert_eq!(n.uplink_busy(1), 0, "reverse direction unused");
    }

    #[test]
    fn topology_accessors() {
        let t = Topology::racked(vec![0, 0, 1, 1, 2], 3.0);
        assert_eq!(t.endpoints(), 5);
        assert_eq!(t.racks(), 3);
        assert_eq!(t.members(0), 2);
        assert_eq!(t.members(2), 1);
        assert!(t.crosses_spine(0, 4));
        assert!(!t.crosses_spine(2, 3));
        assert!(!t.is_flat());
        assert!(Topology::flat(8).is_flat());
    }

    #[test]
    #[should_panic(expected = "must host an endpoint")]
    fn topology_rejects_empty_rack() {
        let _ = Topology::racked(vec![0, 2], 1.0);
    }

    #[test]
    #[should_panic(expected = "finite ratio")]
    fn topology_rejects_bad_oversubscription() {
        let _ = Topology::racked(vec![0, 1], 0.5);
    }

    #[test]
    #[should_panic(expected = "cover every endpoint")]
    fn network_rejects_topology_mismatch() {
        let cfg = NetConfig::ethernet_25g(4).with_topology(Topology::flat(3));
        let _ = Network::new(cfg);
    }
}
