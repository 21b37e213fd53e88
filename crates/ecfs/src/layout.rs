//! Volume-to-stripe layout and block placement — the MDS's job (§4).
//!
//! Each client owns one logical volume (one large file). A volume is
//! striped: stripe `s` covers bytes `[s·kB, (s+1)·kB)` in `k` blocks of `B`
//! bytes, followed by `m` parity blocks. The `k + m` blocks of a stripe are
//! placed on distinct OSDs by a [`Placement`] (the default
//! [`Placement::FlatRotate`] rotates a per-stripe hash over all nodes), and
//! each OSD allocates device space for its blocks with a bump allocator.

use std::hash::{Hash, Hasher};

use rscode::CodeParams;
use tsue::fastmap::FastMap;

use crate::placement::{Placement, RackMap};

/// Globally unique block id: `(volume, stripe, index within stripe)`.
///
/// [`Hash`] feeds a hasher one packed word: the volume's low 16 bits at
/// 48..64, the stripe at 8..48, the index at 0..8 and the volume's high 16
/// bits folded into 28..44. Pool routing depends on it: TSUE's DataLog
/// (`tsue::layers::LogPoolSet::pool_for`) hashes that word, so a record
/// lands in the pool its block's word picks, and another hash would route
/// records, and so every result, differently. Words may coincide for
/// volume ids of 2^16 or more, which costs a bucket collision and nothing
/// else, since addresses compare by [`Eq`]. `tsue::fastmap::FastHasher`
/// folds the word's top bits down, so maps over many volumes' blocks (the
/// logs', the layout's, the oracle's) spread over their buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct BlockAddr {
    /// Volume (client/file) id.
    pub volume: u32,
    /// Stripe index within the volume.
    pub stripe: u64,
    /// Block index within the stripe: `0..k` data, `k..k+m` parity.
    pub index: u16,
}

impl Hash for BlockAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let BlockAddr {
            volume,
            stripe,
            index,
        } = *self;
        let v = volume as u64;
        state.write_u64((v & 0xffff) << 48 ^ (v >> 16) << 28 ^ stripe << 8 ^ index as u64);
    }
}

impl BlockAddr {
    /// Whether this is a data block under the given code.
    pub fn is_data(&self, code: CodeParams) -> bool {
        (self.index as usize) < code.k()
    }
}

/// A stripe-global identifier (volume + stripe) used by delta/parity keys.
/// 24 bits of volume (16 M clients) above 40 bits of stripe, so
/// million-client populations do not alias.
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
    placement: Placement,
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
    /// A layout placing blocks by `placement` over `racks`, reserving
    /// `parity_extra` device bytes after each parity block.
    ///
    /// # Panics
    /// Panics if the placement rejects the `(code, racks)` shape.
    pub fn new(
        code: CodeParams,
        block_bytes: u64,
        parity_extra: u64,
        placement: Placement,
        racks: RackMap,
    ) -> Layout {
        placement
            .check(code, &racks)
            .expect("placement policy rejected the cluster shape");
        let nodes = racks.nodes();
        Layout {
            code,
            block_bytes,
            placement,
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

    /// The OSD hosting a block, per the configured [`Placement`]; the
    /// `k + m` blocks of one stripe always land on distinct nodes.
    pub fn node_of(&self, addr: BlockAddr) -> usize {
        self.placement.node_of(addr, self.code, &self.racks)
    }

    /// Device bytes a block occupies: the block, plus the reserved
    /// `parity_extra` extent after a parity block.
    pub fn span(&self, addr: BlockAddr) -> u64 {
        if addr.is_data(self.code) {
            self.block_bytes
        } else {
            self.block_bytes + self.parity_extra
        }
    }

    /// Node and device offset of a block, allocating its [`Self::span`] on
    /// first touch.
    pub fn locate(&mut self, addr: BlockAddr) -> (usize, u64) {
        if let Some(&loc) = self.table.get(&addr) {
            return loc;
        }
        let node = self.node_of(addr);
        (node, self.allocate(addr, node))
    }

    /// Allocates the block's [`Self::span`] on `node` and homes it there.
    fn allocate(&mut self, addr: BlockAddr, node: usize) -> u64 {
        let dev_off = self.cursors[node];
        self.cursors[node] += self.span(addr);
        self.table.insert(addr, (node, dev_off));
        dev_off
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
        self.allocate(addr, node)
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
        let mut stripes: Vec<(u32, u64)> = self
            .table
            .keys()
            .map(|addr| (addr.volume, addr.stripe))
            .collect();
        stripes.sort_unstable();
        stripes.dedup();
        let mut sets = Vec::with_capacity(stripes.len());
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
            sets.push(nodes);
        }
        sets.sort_unstable();
        sets.dedup();
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
        Layout::new(
            CodeParams::new(6, 3).unwrap(),
            1 << 20,
            0,
            Placement::FlatRotate,
            RackMap::contiguous(16, 1),
        )
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

    /// The packing `BlockAddr` hashes, kept as the reference: the logs
    /// were keyed by this `u64` before they were keyed by the address.
    fn packed(a: BlockAddr) -> u64 {
        let v = a.volume as u64;
        (v & 0xffff) << 48 ^ (v >> 16) << 28 ^ a.stripe << 8 ^ a.index as u64
    }

    fn hash_with<H: Hasher + Default>(value: impl Hash) -> u64 {
        let mut h = H::default();
        value.hash(&mut h);
        h.finish()
    }

    /// Addresses around the packing's edges: volumes on both sides of
    /// 2^16, stripes near 2^20 and indices up to a wide code's parity.
    fn grid() -> Vec<BlockAddr> {
        let volumes = [
            0,
            1,
            7,
            65_534,
            65_535,
            65_536,
            65_537,
            70_000,
            1 << 20,
            u32::MAX,
        ];
        let stripes = [0, 1, 2, 255, 4_096, (1 << 20) - 1, 1 << 20, (1 << 20) + 1];
        let mut v = Vec::new();
        for volume in volumes {
            for stripe in stripes {
                for index in [0, 1, 5, 8, 15, 255] {
                    v.push(BlockAddr {
                        volume,
                        stripe,
                        index,
                    });
                }
            }
        }
        v
    }

    /// Hashing an address equals hashing the packed word under both the
    /// pool router's `DefaultHasher` and the maps' `FastHasher`, so
    /// records land in the same pool and bucket as under `u64` keys.
    #[test]
    fn hash_equals_the_packed_word() {
        use std::collections::hash_map::DefaultHasher;
        use tsue::fastmap::FastHasher;
        for a in grid() {
            assert_eq!(
                hash_with::<DefaultHasher>(a),
                hash_with::<DefaultHasher>(packed(a)),
                "{a:?}"
            );
            assert_eq!(
                hash_with::<FastHasher>(a),
                hash_with::<FastHasher>(packed(a)),
                "{a:?}"
            );
        }
    }

    /// Below volume 2^16 the derived order is the packed word's order, so
    /// a log unit's recycle (sorted by key) replays in the same order. At
    /// 2^16 and above the packing folded the volume's high bits into the
    /// stripe's and could alias: there the orders part.
    #[test]
    fn order_equals_the_packed_order_below_volume_2_16() {
        let mut by_ord: Vec<BlockAddr> =
            grid().into_iter().filter(|a| a.volume < 1 << 16).collect();
        let mut by_word = by_ord.clone();
        by_ord.sort_unstable();
        by_word.sort_unstable_by_key(|&a| packed(a));
        assert_eq!(by_ord, by_word);

        let wide = BlockAddr {
            volume: 1 << 16,
            stripe: 0,
            index: 0,
        };
        let narrow_far = BlockAddr {
            volume: 0,
            stripe: 1 << 20,
            index: 0,
        };
        assert!(narrow_far < wide);
        assert_eq!(
            packed(wide),
            packed(narrow_far),
            "the packing aliased these two"
        );
        let later = BlockAddr {
            stripe: 1 << 20,
            ..wide
        };
        assert!(wide < later);
        assert!(
            packed(wide) > packed(later),
            "the packing ordered them the other way"
        );
    }
}
