//! Volume-to-stripe layout and block placement — the MDS's job (§4).
//!
//! Each client owns one logical volume (one large file). A volume is
//! striped: stripe `s` covers bytes `[s·kB, (s+1)·kB)` in `k` blocks of `B`
//! bytes, followed by `m` parity blocks. The `k + m` blocks of a stripe are
//! placed on distinct OSDs by a pluggable [`PlacementPolicy`] (the default
//! [`FlatRotate`] rotates a per-stripe hash over all nodes), and each OSD
//! allocates device space for its blocks with a bump allocator.

use std::sync::Arc;

use rscode::CodeParams;
use tsue::fastmap::FastMap;

use crate::placement::{FlatRotate, PlacementPolicy, RackMap};

/// Globally unique block id: `(volume, stripe, index within stripe)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr {
    /// Volume (client/file) id.
    pub volume: u32,
    /// Stripe index within the volume.
    pub stripe: u64,
    /// Block index within the stripe: `0..k` data, `k..k+m` parity.
    pub index: u16,
}

impl BlockAddr {
    /// A compact u64 key (for log-pool hashing).
    ///
    /// Layout: volume low 16 bits at 48..64, stripe at 8..48, index at
    /// 0..8 — and the volume's *high* 16 bits folded into bits 28..44,
    /// which keeps the key bit-identical to the legacy packing for
    /// volumes below 65 536 (every pinned golden) while staying injective
    /// for the full 32-bit volume space (million-client populations, one
    /// volume per client) as long as `stripe < 2^20` (≥ 24 TiB per volume
    /// at 6 × 4 MiB stripes). The legacy packing simply shifted the whole
    /// volume to bit 48 and silently aliased clients beyond 65 535.
    pub fn key(&self) -> u64 {
        let v = self.volume as u64;
        debug_assert!(
            v < 1 << 16 || self.stripe < 1 << 20,
            "stripe beyond the injective key range for wide volume ids"
        );
        debug_assert!(self.index < 1 << 8, "index beyond 8-bit key space");
        (v & 0xffff) << 48 ^ (v >> 16) << 28 ^ self.stripe << 8 ^ self.index as u64
    }

    /// Whether this is a data block under the given code.
    pub fn is_data(&self, code: CodeParams) -> bool {
        (self.index as usize) < code.k()
    }
}

/// A stripe-global identifier (volume + stripe) used by delta/parity keys.
/// 24 bits of volume (16 M clients) above 40 bits of stripe — unlike
/// [`BlockAddr::key`], this packing already covers million-client
/// populations without aliasing.
pub fn stripe_key(volume: u32, stripe: u64) -> u64 {
    debug_assert!((volume as u64) < 1 << 24, "volume beyond 24-bit key space");
    debug_assert!(stripe < 1 << 40, "stripe beyond 40-bit key space");
    (volume as u64) << 40 ^ stripe
}

/// The `(volume, stripe)` a [`stripe_key`] was built from — its inverse
/// over the key's range (volume below 2^24, stripe below 2^40), so a key
/// carried through a log names its stripe without a reverse map.
pub fn stripe_of(key: u64) -> (u32, u64) {
    ((key >> 40) as u32, key & ((1 << 40) - 1))
}

/// One sub-update after splitting a volume-offset range on block
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSlice {
    /// The data block touched.
    pub addr: BlockAddr,
    /// Offset within the block.
    pub offset: u32,
    /// Length in bytes.
    pub len: u32,
}

/// The per-data-block slices of one volume byte range, in offset order:
/// the iterator [`Layout::slices`] returns. It owns its (`Copy`) cursor
/// and borrows nothing, so a caller can mutate the cluster between slices.
#[derive(Debug, Clone, Copy)]
pub struct Slices {
    volume: u32,
    block_bytes: u64,
    stripe_span: u64,
    cur: u64,
    end: u64,
}

impl Iterator for Slices {
    type Item = BlockSlice;

    fn next(&mut self) -> Option<BlockSlice> {
        if self.cur >= self.end {
            return None;
        }
        let b = self.block_bytes;
        let stripe = self.cur / self.stripe_span;
        let within = self.cur % self.stripe_span;
        let block_off = within % b;
        let take = (b - block_off).min(self.end - self.cur);
        self.cur += take;
        Some(BlockSlice {
            addr: BlockAddr {
                volume: self.volume,
                stripe,
                index: (within / b) as u16,
            },
            offset: block_off as u32,
            len: take as u32,
        })
    }
}

/// The layout/placement service.
#[derive(Debug, Clone)]
pub struct Layout {
    code: CodeParams,
    block_bytes: u64,
    /// The placement policy mapping blocks to OSDs.
    policy: Arc<dyn PlacementPolicy>,
    /// Node → rack assignment the policy consults.
    racks: RackMap,
    /// Extra device bytes reserved after each parity block (PLR's reserved
    /// log space; zero for every other method).
    parity_extra: u64,
    /// Device-offset allocation per node.
    cursors: Vec<u64>,
    /// Block → (node, device offset).
    table: FastMap<BlockAddr, (usize, u64)>,
}

impl Layout {
    /// New single-rack layout over `nodes` OSDs under [`FlatRotate`].
    pub fn new(code: CodeParams, block_bytes: u64, nodes: usize) -> Layout {
        Self::with_parity_extra(code, block_bytes, nodes, 0)
    }

    /// Single-rack [`FlatRotate`] layout reserving `parity_extra` bytes
    /// adjacent to each parity block.
    pub fn with_parity_extra(
        code: CodeParams,
        block_bytes: u64,
        nodes: usize,
        parity_extra: u64,
    ) -> Layout {
        Self::with_placement(
            code,
            block_bytes,
            parity_extra,
            Arc::new(FlatRotate),
            RackMap::contiguous(nodes, 1),
        )
    }

    /// Fully explicit layout: a placement policy over a rack map.
    ///
    /// # Panics
    /// Panics if the policy rejects the `(code, racks)` shape.
    pub fn with_placement(
        code: CodeParams,
        block_bytes: u64,
        parity_extra: u64,
        policy: Arc<dyn PlacementPolicy>,
        racks: RackMap,
    ) -> Layout {
        policy
            .check(code, &racks)
            .expect("placement policy rejected the cluster shape");
        let nodes = racks.nodes();
        Layout {
            code,
            block_bytes,
            policy,
            racks,
            parity_extra,
            cursors: vec![0; nodes],
            table: FastMap::default(),
        }
    }

    /// The code shape.
    pub fn code(&self) -> CodeParams {
        self.code
    }

    /// The placement policy in force.
    pub fn placement(&self) -> &Arc<dyn PlacementPolicy> {
        &self.policy
    }

    /// The node → rack assignment.
    pub fn racks(&self) -> &RackMap {
        &self.racks
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Splits a volume byte range into per-data-block slices.
    pub fn slices(&self, volume: u32, offset: u64, len: u32) -> Slices {
        Slices {
            volume,
            block_bytes: self.block_bytes,
            stripe_span: self.code.k() as u64 * self.block_bytes,
            cur: offset,
            end: offset + len as u64,
        }
    }

    /// The OSD hosting a block, per the configured [`PlacementPolicy`];
    /// the `k + m` blocks of one stripe always land on distinct nodes.
    pub fn node_of(&self, addr: BlockAddr) -> usize {
        self.policy.node_of(addr, self.code, &self.racks)
    }

    /// The rack hosting a block.
    pub fn rack_of(&self, addr: BlockAddr) -> usize {
        self.racks.rack_of(self.node_of(addr))
    }

    /// Node and device offset of a block, allocating on first touch.
    /// Parity blocks also reserve `parity_extra` adjacent bytes.
    pub fn locate(&mut self, addr: BlockAddr) -> (usize, u64) {
        if let Some(&loc) = self.table.get(&addr) {
            return loc;
        }
        let node = self.node_of(addr);
        let dev_off = self.cursors[node];
        let span = if addr.is_data(self.code) {
            self.block_bytes
        } else {
            self.block_bytes + self.parity_extra
        };
        self.cursors[node] += span;
        self.table.insert(addr, (node, dev_off));
        (node, dev_off)
    }

    /// Re-homes a block (recovery rebuilt it elsewhere): subsequent
    /// [`Self::locate`] and [`Self::blocks_on`] see the new location.
    pub fn relocate(&mut self, addr: BlockAddr, node: usize, dev_off: u64) {
        self.table.insert(addr, (node, dev_off));
    }

    /// Whether the block has been allocated device space (placed or
    /// relocated) — i.e. whether it may hold data.
    pub fn is_placed(&self, addr: BlockAddr) -> bool {
        self.table.contains_key(&addr)
    }

    /// The node currently hosting a block: its relocation target if it was
    /// re-homed, otherwise its placement-policy home. Never allocates.
    pub fn current_node(&self, addr: BlockAddr) -> usize {
        match self.table.get(&addr) {
            Some(&(n, _)) => n,
            None => self.node_of(addr),
        }
    }

    /// Forces a not-yet-placed block onto `node` (degraded placement: its
    /// policy home is dead, so the MDS homes it on a live node instead),
    /// allocating device space there. Returns the device offset.
    ///
    /// # Panics
    /// Panics if the block is already placed — relocation of live data
    /// goes through [`Self::relocate`] after a rebuild.
    pub fn place_on(&mut self, addr: BlockAddr, node: usize) -> u64 {
        assert!(
            !self.is_placed(addr),
            "place_on called on an already-placed block"
        );
        let dev_off = self.cursors[node];
        let span = if addr.is_data(self.code) {
            self.block_bytes
        } else {
            self.block_bytes + self.parity_extra
        };
        self.cursors[node] += span;
        self.table.insert(addr, (node, dev_off));
        dev_off
    }

    /// Device bytes allocated on `node` so far.
    pub fn allocated(&self, node: usize) -> u64 {
        self.cursors[node]
    }

    /// All placed blocks on a node (for recovery enumeration).
    pub fn blocks_on(&self, node: usize) -> Vec<(BlockAddr, u64)> {
        let mut v: Vec<(BlockAddr, u64)> = self
            .table
            .iter()
            .filter(|(_, &(n, _))| n == node)
            .map(|(&a, &(_, off))| (a, off))
            .collect();
        v.sort_by_key(|&(_, off)| off);
        v
    }

    /// The number of distinct co-location sets among all touched stripes:
    /// for every stripe with at least one placed block, the set of nodes
    /// hosting its `k + m` blocks (current homes for placed blocks, the
    /// policy's homes for the rest). A copyset placement bounds this by
    /// its budget (rebuild relocations can drift it); rotation placements
    /// grow it with the stripe count — it is the blast-radius currency a
    /// [`crate::fault::FaultPlan`] run reports.
    pub fn distinct_copysets(&self) -> usize {
        let stripes: std::collections::HashSet<(u32, u64)> = self
            .table
            .keys()
            .map(|addr| (addr.volume, addr.stripe))
            .collect();
        let mut sets = std::collections::HashSet::new();
        for (volume, stripe) in stripes {
            let mut nodes: Vec<usize> = (0..self.code.total() as u16)
                .map(|index| {
                    self.current_node(BlockAddr {
                        volume,
                        stripe,
                        index,
                    })
                })
                .collect();
            nodes.sort_unstable();
            nodes.dedup();
            sets.insert(nodes);
        }
        sets.len()
    }

    /// The parity block addresses of a stripe, in parity order. The
    /// iterator borrows nothing, so a caller can place blocks while
    /// walking it.
    pub fn parity_addrs(
        &self,
        volume: u32,
        stripe: u64,
    ) -> impl ExactSizeIterator<Item = BlockAddr> + Clone {
        let k = self.code.k() as u16;
        (k..k + self.code.m() as u16).map(move |index| BlockAddr {
            volume,
            stripe,
            index,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::new(CodeParams::new(6, 3).unwrap(), 1 << 20, 16)
    }

    #[test]
    fn slices_within_one_block() {
        let l = layout();
        let s: Vec<_> = l.slices(0, 100, 4096).collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].addr.stripe, 0);
        assert_eq!(s[0].addr.index, 0);
        assert_eq!(s[0].offset, 100);
        assert_eq!(s[0].len, 4096);
    }

    #[test]
    fn slices_split_on_block_boundary() {
        let l = layout();
        let b = 1u64 << 20;
        let s: Vec<_> = l.slices(3, b - 1000, 4096).collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].addr.index, 0);
        assert_eq!(s[0].offset as u64, b - 1000);
        assert_eq!(s[0].len, 1000);
        assert_eq!(s[1].addr.index, 1);
        assert_eq!(s[1].offset, 0);
        assert_eq!(s[1].len, 3096);
    }

    #[test]
    fn slices_cross_stripe_boundary() {
        let l = layout();
        let stripe_span = 6 * (1u64 << 20);
        let s: Vec<_> = l.slices(0, stripe_span - 100, 200).collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].addr.stripe, 0);
        assert_eq!(s[0].addr.index, 5);
        assert_eq!(s[1].addr.stripe, 1);
        assert_eq!(s[1].addr.index, 0);
    }

    #[test]
    fn stripe_blocks_on_distinct_nodes() {
        let l = layout();
        for stripe in 0..50 {
            let nodes: Vec<usize> = (0..9u16)
                .map(|i| {
                    l.node_of(BlockAddr {
                        volume: 1,
                        stripe,
                        index: i,
                    })
                })
                .collect();
            let mut sorted = nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 9, "stripe {stripe}: {nodes:?}");
        }
    }

    #[test]
    fn placement_spreads_over_all_nodes() {
        let mut l = layout();
        let mut hit = vec![0u32; 16];
        for v in 0..4u32 {
            for s in 0..40u64 {
                for i in 0..9u16 {
                    let (n, _) = l.locate(BlockAddr {
                        volume: v,
                        stripe: s,
                        index: i,
                    });
                    hit[n] += 1;
                }
            }
        }
        let min = *hit.iter().min().unwrap();
        let max = *hit.iter().max().unwrap();
        assert!(min > 0, "some node unused: {hit:?}");
        assert!(max < min * 3, "placement too skewed: {hit:?}");
    }

    #[test]
    fn locate_is_stable_and_bumps() {
        let mut l = layout();
        let a = BlockAddr {
            volume: 0,
            stripe: 0,
            index: 0,
        };
        let first = l.locate(a);
        assert_eq!(l.locate(a), first);
        // Another block on the same node gets the next slot.
        let mut other = None;
        for s in 1..100 {
            let addr = BlockAddr {
                volume: 0,
                stripe: s,
                index: 0,
            };
            if l.node_of(addr) == first.0 {
                other = Some(l.locate(addr));
                break;
            }
        }
        let other = other.expect("some stripe lands on the same node");
        assert_eq!(other.1, first.1 + (1 << 20));
        assert_eq!(l.allocated(first.0), 2 << 20);
    }

    #[test]
    fn blocks_on_lists_node_blocks() {
        let mut l = layout();
        for s in 0..20u64 {
            for i in 0..9u16 {
                l.locate(BlockAddr {
                    volume: 0,
                    stripe: s,
                    index: i,
                });
            }
        }
        let total: usize = (0..16).map(|n| l.blocks_on(n).len()).sum();
        assert_eq!(total, 180);
    }

    #[test]
    fn distinct_copysets_counts_node_sets() {
        let mut l = layout();
        assert_eq!(l.distinct_copysets(), 0, "empty layout has no sets");
        for s in 0..30u64 {
            for i in 0..9u16 {
                l.locate(BlockAddr {
                    volume: 0,
                    stripe: s,
                    index: i,
                });
            }
        }
        let sets = l.distinct_copysets();
        assert!(sets > 1 && sets <= 30, "flat rotation used {sets} sets");
        // Relocating a block changes its stripe's node set.
        let a = BlockAddr {
            volume: 0,
            stripe: 0,
            index: 0,
        };
        let elsewhere = (0..16)
            .find(|&n| {
                (0..9u16).all(|i| {
                    l.current_node(BlockAddr {
                        volume: 0,
                        stripe: 0,
                        index: i,
                    }) != n
                })
            })
            .expect("some node outside stripe 0");
        l.relocate(a, elsewhere, 0);
        assert!(l.distinct_copysets() >= sets, "relocation cannot shrink");
    }

    #[test]
    fn current_node_tracks_relocation() {
        let mut l = layout();
        let a = BlockAddr {
            volume: 0,
            stripe: 7,
            index: 2,
        };
        let policy_home = l.node_of(a);
        assert_eq!(l.current_node(a), policy_home, "unplaced: policy home");
        assert!(!l.is_placed(a));
        let (node, _) = l.locate(a);
        assert_eq!(node, policy_home);
        assert!(l.is_placed(a));
        let target = (policy_home + 1) % 16;
        l.relocate(a, target, 42);
        assert_eq!(l.current_node(a), target);
        assert_eq!(l.locate(a), (target, 42));
    }

    #[test]
    fn place_on_forces_home_and_allocates() {
        let mut l = layout();
        let a = BlockAddr {
            volume: 0,
            stripe: 3,
            index: 1,
        };
        let target = (l.node_of(a) + 5) % 16;
        let before = l.allocated(target);
        let off = l.place_on(a, target);
        assert_eq!(off, before);
        assert_eq!(l.allocated(target), before + (1 << 20));
        assert_eq!(l.current_node(a), target);
        assert_eq!(l.locate(a), (target, off));
    }

    #[test]
    #[should_panic(expected = "already-placed")]
    fn place_on_rejects_placed_blocks() {
        let mut l = layout();
        let a = BlockAddr {
            volume: 0,
            stripe: 0,
            index: 0,
        };
        l.locate(a);
        l.place_on(a, 3);
    }

    #[test]
    fn stripe_of_inverts_stripe_key() {
        for (volume, stripe) in [
            (0, 0),
            (1, 7),
            (65_535, 1 << 20),
            ((1 << 24) - 1, (1 << 40) - 1),
        ] {
            assert_eq!(stripe_of(stripe_key(volume, stripe)), (volume, stripe));
        }
    }

    #[test]
    fn parity_addrs_follow_the_data_blocks() {
        let l = layout();
        let p: Vec<_> = l.parity_addrs(2, 9).collect();
        assert_eq!(l.parity_addrs(2, 9).len(), 3);
        assert_eq!(p.iter().map(|a| a.index).collect::<Vec<_>>(), [6, 7, 8]);
        assert!(p.iter().all(|a| (a.volume, a.stripe) == (2, 9)));
    }

    #[test]
    fn block_key_unique_for_small_space() {
        let mut seen = std::collections::HashSet::new();
        for v in 0..3u32 {
            for s in 0..100u64 {
                for i in 0..10u16 {
                    assert!(seen.insert(
                        BlockAddr {
                            volume: v,
                            stripe: s,
                            index: i
                        }
                        .key()
                    ));
                }
            }
        }
    }
}
