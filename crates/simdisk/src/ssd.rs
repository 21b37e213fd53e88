//! NAND SSD model: command-overhead latency plus a page-mapped FTL whose
//! garbage collection charges real time and counts erase cycles.

use simdes::{Resource, SimTime};

use crate::lse::LseModel;
use crate::stats::DeviceStats;
use crate::{IoKind, IoOp, Pattern};

const UNMAPPED: u32 = u32::MAX;

/// SSD configuration.
///
/// Defaults model a datacenter SATA/NVMe-class drive of the kind the paper's
/// Chameleon nodes carried, scaled down in capacity so sixteen simulated
/// devices stay memory-cheap. The latency constants encode the property the
/// paper leans on: a small random command costs two orders of magnitude more
/// than its share of a large sequential stream.
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// NAND page size in bytes.
    pub page_size: u64,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Logical (host-visible) capacity in bytes.
    pub capacity: u64,
    /// Extra physical space fraction reserved for the FTL.
    pub over_provision: f64,
    /// Internal command parallelism (NCQ/NVMe queue lanes).
    pub queue_depth: usize,
    /// Fixed overhead of a random read command.
    pub rand_read_overhead: SimTime,
    /// Fixed overhead of a random write command.
    pub rand_write_overhead: SimTime,
    /// Fixed overhead of a sequential read command.
    pub seq_read_overhead: SimTime,
    /// Fixed overhead of a sequential write command.
    pub seq_write_overhead: SimTime,
    /// Sustained read bandwidth, bytes per second.
    pub read_bandwidth: u64,
    /// Sustained write bandwidth, bytes per second.
    pub write_bandwidth: u64,
    /// Time to erase one NAND block.
    pub erase_time: SimTime,
    /// Time to relocate one valid page during GC (read + program).
    pub gc_page_move_time: SimTime,
    /// GC starts when the free-block fraction drops below this.
    pub gc_free_threshold: f64,
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig {
            page_size: 4096,
            pages_per_block: 64, // 256 KiB erase block
            capacity: 2 << 30,   // 2 GiB logical (scaled-down 400 GB drive)
            over_provision: 0.125,
            queue_depth: 4,
            rand_read_overhead: 45 * simdes::units::MICROS,
            rand_write_overhead: 60 * simdes::units::MICROS,
            seq_read_overhead: 15 * simdes::units::MICROS,
            seq_write_overhead: 20 * simdes::units::MICROS,
            read_bandwidth: 2_000_000_000,
            write_bandwidth: 1_100_000_000,
            erase_time: 2 * simdes::units::MILLIS,
            gc_page_move_time: 60 * simdes::units::MICROS,
            gc_free_threshold: 0.06,
        }
    }
}

/// Page-mapped flash translation layer.
///
/// Logical pages map to physical pages; overwrites invalidate the old
/// physical page. When the pool of free blocks falls below the GC
/// threshold, greedy GC picks the closed block with the fewest valid
/// pages — the lowest-index one among equals, a tie-break every pinned
/// erase count and digest depends on — relocates them, and erases it.
/// Erases and relocations are returned to the caller so they can be
/// charged to the device timeline and to the wear counters.
///
/// A block is exactly one of *free* (erased, on `free_blocks`), *active*
/// (receiving writes) or *closed* (retired from active, indexed in
/// `closed` by its valid-page count so the victim is found without
/// visiting every block).
///
/// A write command arrives as one run of logical pages and is programmed
/// in chunks that fit the active block. A page that finds the active block
/// full takes the per-page path (`write_page`), the only place a
/// block retires and GC runs. Every other chunk lands in the active block
/// as one contiguous range, and its old locations are invalidated grouped
/// by old block: one bucket move per stretch of consecutive pages sharing
/// an old block. This leaves exactly the state page-by-page writes would.
/// Nothing inside a chunk can retire a block or start GC, and a closed
/// block's bucket depends only on its final valid count.
#[derive(Debug, Clone)]
pub struct Ftl {
    pages_per_block: u32,
    /// lpn -> ppa
    map: Vec<u32>,
    /// ppa -> lpn
    rmap: Vec<u32>,
    /// valid page count per physical block
    valid: Vec<u16>,
    /// stack of free (erased) block ids
    free_blocks: Vec<u32>,
    /// closed blocks by valid-page count
    closed: ValidBuckets,
    active_block: u32,
    active_next_page: u32,
    gc_threshold_blocks: usize,
    /// Re-entrancy guard: relocations during GC allocate pages, which must
    /// not trigger a nested GC pass (the inner pass could erase and reuse
    /// the outer pass's victim mid-relocation).
    gc_active: bool,
    /// Check every GC round's victim against the scan the index replaced.
    #[cfg(test)]
    check_victims: bool,
}

/// Closed blocks indexed by valid-page count: bucket `v` is a bitset over
/// block ids of the closed blocks holding `v` valid pages, with its
/// population, so the greedy victim is the lowest set bit of the lowest
/// non-empty bucket.
#[derive(Debug, Clone)]
struct ValidBuckets {
    /// `u64` words per bucket.
    words: usize,
    /// Bucket `v` is `bits[v * words..][..words]`.
    bits: Vec<u64>,
    /// Blocks per bucket.
    len: Vec<u32>,
}

impl ValidBuckets {
    fn new(buckets: usize, blocks: usize) -> ValidBuckets {
        let words = blocks.div_ceil(64);
        ValidBuckets {
            words,
            bits: vec![0; buckets * words],
            len: vec![0; buckets],
        }
    }

    fn insert(&mut self, valid: u16, block: usize) {
        let word = &mut self.bits[valid as usize * self.words + block / 64];
        debug_assert_eq!(*word >> (block % 64) & 1, 0, "block already filed");
        *word |= 1 << (block % 64);
        self.len[valid as usize] += 1;
    }

    fn remove(&mut self, valid: u16, block: usize) {
        let word = &mut self.bits[valid as usize * self.words + block / 64];
        debug_assert_eq!(*word >> (block % 64) & 1, 1, "block not in its bucket");
        *word &= !(1 << (block % 64));
        self.len[valid as usize] -= 1;
    }

    /// Lowest-index block of the lowest non-empty bucket; every bucket
    /// head and bitset word examined adds one to `scanned`.
    fn lowest(&self, scanned: &mut u64) -> Option<usize> {
        let bucket = self.len.iter().position(|&n| {
            *scanned += 1;
            n != 0
        })?;
        let bits = &self.bits[bucket * self.words..][..self.words];
        let word = bits
            .iter()
            .position(|&w| {
                *scanned += 1;
                w != 0
            })
            .expect("a non-empty bucket has a set bit");
        Some(word * 64 + bits[word].trailing_zeros() as usize)
    }
}

/// GC/wear cost of a batch of page writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FlashCost {
    /// Pages programmed on behalf of the host.
    host_pages: u64,
    /// Pages relocated by garbage collection.
    moved_pages: u64,
    /// Blocks erased.
    erases: u64,
    /// Positions (bucket heads and bitset words) victim selection examined.
    blocks_scanned: u64,
}

impl Ftl {
    fn new(cfg: &SsdConfig) -> Ftl {
        let logical_pages = cfg.capacity.div_ceil(cfg.page_size);
        let physical_pages = ((logical_pages as f64) * (1.0 + cfg.over_provision)).ceil() as u64;
        let total_blocks = physical_pages.div_ceil(cfg.pages_per_block as u64) as usize;
        assert!(
            total_blocks >= 4,
            "SSD too small: needs at least 4 erase blocks"
        );
        let free_blocks: Vec<u32> = (1..total_blocks as u32).rev().collect();
        let active_block = 0;
        let gc_threshold_blocks =
            ((total_blocks as f64 * cfg.gc_free_threshold).ceil() as usize).max(2);
        Ftl {
            pages_per_block: cfg.pages_per_block,
            map: vec![UNMAPPED; logical_pages as usize],
            rmap: vec![UNMAPPED; total_blocks * cfg.pages_per_block as usize],
            valid: vec![0; total_blocks],
            free_blocks,
            closed: ValidBuckets::new(cfg.pages_per_block as usize + 1, total_blocks),
            active_block,
            active_next_page: 0,
            gc_threshold_blocks,
            gc_active: false,
            #[cfg(test)]
            check_victims: false,
        }
    }

    /// Writes the `pages` logical pages from `first` on, chunk by chunk
    /// (see [`Ftl`]), adding the wear cost incurred (including any GC the
    /// writes triggered) to `cost`; returns how many of them had been
    /// written before.
    fn write_run(&mut self, first: u64, pages: u64, cost: &mut FlashCost) -> u64 {
        let end = first + pages;
        let mut lpn = first;
        let mut mapped = 0;
        while lpn < end {
            let room = self.pages_per_block - self.active_next_page;
            if room == 0 {
                mapped += u64::from(self.write_page(lpn, cost));
                lpn += 1;
            } else {
                let k = (end - lpn).min(u64::from(room)) as u32;
                mapped += self.fill_active(lpn, k, cost);
                lpn += u64::from(k);
            }
        }
        mapped
    }

    /// Writes one logical page, adding the wear cost incurred (including
    /// any GC this write triggered) to `cost`; returns whether the page
    /// had been written before.
    fn write_page(&mut self, lpn: u64, cost: &mut FlashCost) -> bool {
        debug_assert!(lpn < self.map.len() as u64, "lpn out of range");
        // Invalidate the previous location.
        let old = self.map[lpn as usize];
        let overwrite = old != UNMAPPED;
        if overwrite {
            self.invalidate(old / self.pages_per_block, 1);
            self.rmap[old as usize] = UNMAPPED;
        }
        let ppa = self.allocate_page(cost);
        self.map[lpn as usize] = ppa;
        self.rmap[ppa as usize] = lpn as u32;
        self.valid[(ppa / self.pages_per_block) as usize] += 1;
        cost.host_pages += 1;
        overwrite
    }

    /// Writes the `k` logical pages from `lpn` on into the next `k` pages
    /// of the active block, which must have room for them; returns how
    /// many had been written before.
    fn fill_active(&mut self, lpn: u64, k: u32, cost: &mut FlashCost) -> u64 {
        debug_assert!(k <= self.pages_per_block - self.active_next_page);
        let base = self.active_block * self.pages_per_block + self.active_next_page;
        let mut mapped = 0;
        // The stretch of consecutive old locations in one block.
        let (mut stretch_block, mut stretch) = (UNMAPPED, 0);
        for i in 0..k {
            let lpn = lpn as usize + i as usize;
            let old = self.map[lpn];
            if old != UNMAPPED {
                let blk = old / self.pages_per_block;
                if blk != stretch_block {
                    self.invalidate(stretch_block, stretch);
                    (stretch_block, stretch) = (blk, 0);
                }
                stretch += 1;
                mapped += 1;
                self.rmap[old as usize] = UNMAPPED;
            }
            self.map[lpn] = base + i;
            self.rmap[(base + i) as usize] = lpn as u32;
        }
        self.invalidate(stretch_block, stretch);
        self.valid[self.active_block as usize] += k as u16;
        self.active_next_page += k;
        cost.host_pages += u64::from(k);
        mapped
    }

    /// Drops `n` valid pages from block `blk`, refiling it once if closed.
    fn invalidate(&mut self, blk: u32, n: u16) {
        if n == 0 {
            return;
        }
        let v = self.valid[blk as usize];
        self.valid[blk as usize] = v - n;
        // A mapped page sits in the active block or in a closed one.
        if blk != self.active_block {
            self.closed.remove(v, blk as usize);
            self.closed.insert(v - n, blk as usize);
        }
    }

    fn allocate_page(&mut self, cost: &mut FlashCost) -> u32 {
        if self.active_next_page == self.pages_per_block {
            // Active block is full: pick a new one, GC first if needed.
            if !self.gc_active && self.free_blocks.len() < self.gc_threshold_blocks {
                self.collect_garbage(cost);
            }
            // Retire the active block (part-filled if relocations of the
            // pass above just opened it) into the closed index.
            let retired = self.active_block as usize;
            self.closed.insert(self.valid[retired], retired);
            self.active_block = self
                .free_blocks
                .pop()
                .expect("GC must keep at least one free block");
            self.active_next_page = 0;
        }
        let ppa = self.active_block * self.pages_per_block + self.active_next_page;
        self.active_next_page += 1;
        ppa
    }

    fn collect_garbage(&mut self, cost: &mut FlashCost) {
        self.gc_active = true;
        while self.free_blocks.len() < self.gc_threshold_blocks {
            // Greedy victim: the lowest-index closed block among those with
            // the fewest valid pages.
            let victim = self
                .closed
                .lowest(&mut cost.blocks_scanned)
                .expect("no GC victim available");
            #[cfg(test)]
            if self.check_victims {
                assert_eq!(victim, self.reference_victim());
            }
            self.closed.remove(self.valid[victim], victim);
            // Relocate the victim's valid pages into the active stream.
            let base = victim as u32 * self.pages_per_block;
            for p in 0..self.pages_per_block {
                let ppa = base + p;
                let lpn = self.rmap[ppa as usize];
                if lpn == UNMAPPED {
                    continue;
                }
                self.rmap[ppa as usize] = UNMAPPED;
                self.valid[victim] -= 1;
                let new_ppa = self.allocate_page(cost);
                self.map[lpn as usize] = new_ppa;
                self.rmap[new_ppa as usize] = lpn;
                self.valid[(new_ppa / self.pages_per_block) as usize] += 1;
                cost.moved_pages += 1;
            }
            debug_assert_eq!(self.valid[victim], 0);
            cost.erases += 1;
            self.free_blocks.push(victim as u32);
        }
        self.gc_active = false;
    }
}

/// The SSD device: latency model + FTL + statistics.
#[derive(Debug, Clone)]
pub struct Ssd {
    cfg: SsdConfig,
    ftl: Ftl,
    queue: Resource,
    stats: DeviceStats,
    /// Latent-sector-error oracle, if installed.
    lse: Option<LseModel>,
}

impl Ssd {
    /// Builds an SSD from its configuration.
    pub fn new(cfg: SsdConfig) -> Ssd {
        Ssd {
            queue: Resource::new(cfg.queue_depth),
            ftl: Ftl::new(&cfg),
            stats: DeviceStats::default(),
            lse: None,
            cfg,
        }
    }

    /// SSD with default configuration.
    pub fn with_defaults() -> Ssd {
        Ssd::new(SsdConfig::default())
    }

    /// Logical capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    /// Device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Total busy time booked on the device queue.
    pub fn busy_time(&self) -> u64 {
        self.queue.busy_time()
    }

    /// Installs (or replaces) the latent-sector-error oracle.
    pub fn install_lse(&mut self, model: LseModel) {
        self.lse = Some(model);
    }

    /// The latent-sector-error oracle, if installed.
    pub fn lse(&self) -> Option<&LseModel> {
        self.lse.as_ref()
    }

    /// Mutable access to the latent-sector-error oracle.
    pub fn lse_mut(&mut self) -> Option<&mut LseModel> {
        self.lse.as_mut()
    }

    /// Pure service-time model for an op (no queueing, no FTL): fixed
    /// command overhead by pattern plus transfer at media bandwidth.
    pub fn service_time(&self, op: &IoOp) -> SimTime {
        let (overhead, bw) = match (op.kind, op.pattern) {
            (IoKind::Read, Pattern::Random) => {
                (self.cfg.rand_read_overhead, self.cfg.read_bandwidth)
            }
            (IoKind::Read, Pattern::Sequential) => {
                (self.cfg.seq_read_overhead, self.cfg.read_bandwidth)
            }
            (IoKind::Write, Pattern::Random) => {
                (self.cfg.rand_write_overhead, self.cfg.write_bandwidth)
            }
            (IoKind::Write, Pattern::Sequential) => {
                (self.cfg.seq_write_overhead, self.cfg.write_bandwidth)
            }
        };
        overhead + op.len * simdes::units::SECS / bw
    }

    /// Submits an I/O; returns its completion time.
    ///
    /// A write reaches the FTL as one run of pages, programmed a chunk at
    /// a time (see [`Ftl`]) into exactly the state page-by-page writes
    /// would leave; GC relocations and erases extend this command's
    /// service time (foreground GC), which is how sustained random
    /// overwrite load degrades latency on real drives.
    ///
    /// # Panics
    /// Panics if the op exceeds the device capacity or has zero length.
    pub fn submit(&mut self, now: SimTime, op: IoOp) -> SimTime {
        assert!(op.len > 0, "zero-length I/O");
        assert!(
            op.len <= self.cfg.capacity && op.offset <= self.cfg.capacity - op.len,
            "I/O beyond device capacity: offset {} len {} cap {}",
            op.offset,
            op.len,
            self.cfg.capacity
        );
        let mut service = self.service_time(&op);
        match op.kind {
            IoKind::Read => {
                self.stats.reads.record(op.len);
                if op.pattern == Pattern::Random {
                    self.stats.random_reads.record(op.len);
                }
            }
            IoKind::Write => {
                self.stats.writes.record(op.len);
                if op.pattern == Pattern::Random {
                    self.stats.random_writes.record(op.len);
                }
                service += self.program(op.offset, op.len);
            }
        }
        self.queue.reserve(now, service)
    }

    /// Programs `[offset, offset + len)` through the FTL and books the
    /// wear; returns the GC time it adds to the command.
    ///
    /// Overwrites count at page granularity: a page was written before iff
    /// it is mapped, which holds for the whole command (GC moves mapped
    /// pages, it never unmaps one). So the overwritten bytes are the
    /// mapped pages, less the unwritten head of the first page and tail of
    /// the last one where those were mapped.
    fn program(&mut self, offset: u64, len: u64) -> SimTime {
        let ps = self.cfg.page_size;
        let end = offset + len;
        let first = offset / ps;
        let last = (end - 1) / ps;
        let mapped = |lpn: u64| self.ftl.map[lpn as usize] != UNMAPPED;
        let head = if mapped(first) {
            offset - first * ps
        } else {
            0
        };
        let tail = if mapped(last) {
            (last + 1) * ps - end
        } else {
            0
        };
        let mut cost = FlashCost::default();
        let overwritten = self.ftl.write_run(first, last - first + 1, &mut cost);
        self.book_flash(overwritten * ps - head - tail, cost)
    }

    /// Books a write's overwritten bytes and flash cost in the statistics;
    /// returns the GC time it adds to the command.
    fn book_flash(&mut self, over_bytes: u64, cost: FlashCost) -> SimTime {
        if over_bytes > 0 {
            self.stats.overwrites.record(over_bytes);
        }
        self.stats.nand_pages_programmed += cost.host_pages + cost.moved_pages;
        self.stats.gc_relocated_pages += cost.moved_pages;
        self.stats.erases += cost.erases;
        self.stats.gc_blocks_scanned += cost.blocks_scanned;
        self.stats.wear_bytes += (cost.host_pages + cost.moved_pages) * self.cfg.page_size;
        cost.moved_pages * self.cfg.gc_page_move_time + cost.erases * self.cfg.erase_time
    }

    /// Explicitly erases the flash blocks backing `[offset, offset+len)` —
    /// the cost of reusing *fixed* on-device log regions (e.g. PLR's
    /// reserved space) that cannot ride the FTL's remapping. Counts erase
    /// cycles and books erase time on the device queue.
    pub fn erase_region(&mut self, now: SimTime, offset: u64, len: u64) -> SimTime {
        assert!(len > 0, "zero-length erase");
        assert!(
            len <= self.cfg.capacity && offset <= self.cfg.capacity - len,
            "erase beyond capacity"
        );
        let block_bytes = self.cfg.page_size * self.cfg.pages_per_block as u64;
        let first = offset / block_bytes;
        let last = (offset + len - 1) / block_bytes;
        let blocks = last - first + 1;
        self.stats.erases += blocks;
        self.stats.region_erases += blocks;
        self.queue.reserve(now, blocks * self.cfg.erase_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erase_ratio;
    use crate::lse::splitmix64;
    use simdes::units::{MICROS, SECS};

    fn small_ssd() -> Ssd {
        Ssd::new(SsdConfig {
            capacity: 16 << 20, // 16 MiB
            ..SsdConfig::default()
        })
    }

    impl Ftl {
        /// The scan the closed-block index replaced, kept as the reference:
        /// visit every block in index order, skip the active and the free
        /// ones, keep the first with strictly fewer valid pages.
        pub(super) fn reference_victim(&self) -> usize {
            let mut victim = usize::MAX;
            let mut best = u16::MAX;
            for b in 0..self.valid.len() {
                if b as u32 == self.active_block {
                    continue;
                }
                if self.free_blocks.contains(&(b as u32)) {
                    continue;
                }
                if self.valid[b] < best {
                    best = self.valid[b];
                    victim = b;
                    if best == 0 {
                        break;
                    }
                }
            }
            victim
        }

        /// Free, active and closed partition the blocks; every closed block
        /// sits in exactly the bucket of its valid count; valid counts add
        /// up to the mapped pages.
        fn check_invariants(&self) {
            let filed = |v: usize, b: usize| {
                self.closed.bits[v * self.closed.words + b / 64] >> (b % 64) & 1 == 1
            };
            let mut closed = 0;
            for b in 0..self.valid.len() {
                let free = self
                    .free_blocks
                    .iter()
                    .filter(|&&f| f as usize == b)
                    .count();
                let active = usize::from(b as u32 == self.active_block);
                let buckets: Vec<usize> = (0..self.closed.len.len())
                    .filter(|&v| filed(v, b))
                    .collect();
                assert_eq!(
                    free + active + buckets.len(),
                    1,
                    "block {b}: free {free} active {active} buckets {buckets:?}"
                );
                if let [v] = buckets[..] {
                    assert_eq!(v, self.valid[b] as usize, "block {b} in the wrong bucket");
                    closed += 1;
                }
            }
            for (v, &n) in self.closed.len.iter().enumerate() {
                let bits = &self.closed.bits[v * self.closed.words..][..self.closed.words];
                let ones: u32 = bits.iter().map(|w| w.count_ones()).sum();
                assert_eq!(ones, n, "bucket {v} population");
            }
            let filed_total: u32 = self.closed.len.iter().sum();
            assert_eq!(filed_total as usize, closed);
            let mapped = self.map.iter().filter(|&&p| p != UNMAPPED).count();
            let valid: usize = self.valid.iter().map(|&v| v as usize).sum();
            assert_eq!(valid, mapped);
        }

        /// Same mapping, valid counts, closed buckets, free list and
        /// active block and page as `other`.
        fn assert_same(&self, other: &Ftl, command: usize) {
            assert!(self.map == other.map, "map differs after command {command}");
            assert!(self.rmap == other.rmap, "rmap differs after {command}");
            assert!(self.valid == other.valid, "valid differs after {command}");
            assert!(
                self.closed.bits == other.closed.bits && self.closed.len == other.closed.len,
                "closed buckets differ after {command}"
            );
            assert!(
                self.free_blocks == other.free_blocks,
                "free list differs after {command}"
            );
            assert_eq!(
                (self.active_block, self.active_next_page),
                (other.active_block, other.active_next_page),
                "active block and page after {command}"
            );
        }
    }

    impl Ssd {
        /// The page-by-page loop the run replaced, kept as the reference:
        /// one `write_page` per page, each overwritten page adding its
        /// overlap with the command.
        fn program_per_page(&mut self, offset: u64, len: u64) -> SimTime {
            let ps = self.cfg.page_size;
            let mut over_bytes = 0;
            let mut cost = FlashCost::default();
            for lpn in offset / ps..=(offset + len - 1) / ps {
                if self.ftl.write_page(lpn, &mut cost) {
                    let start = offset.max(lpn * ps);
                    let end = (offset + len).min((lpn + 1) * ps);
                    over_bytes += end.saturating_sub(start);
                }
            }
            self.book_flash(over_bytes, cost)
        }
    }

    /// Runs `(offset, len)` writes on two 4 MiB / 25 %-OP devices, one
    /// programming runs and one page by page, with every GC round checked
    /// against the reference scan. After each command both must agree on
    /// completion time, FTL state and wear counters; the invariants are
    /// checked every 1 000 commands. Returns the run device and how many
    /// commands ran GC after their first page.
    fn run_matches_per_page(commands: impl Iterator<Item = (u64, u64)>) -> (Ssd, u64) {
        let cfg = SsdConfig {
            capacity: 4 << 20,
            over_provision: 0.25,
            ..SsdConfig::default()
        };
        let ppb = u64::from(cfg.pages_per_block);
        let (mut run, mut page) = (Ssd::new(cfg.clone()), Ssd::new(cfg));
        run.ftl.check_victims = true;
        page.ftl.check_victims = true;
        let mut mid_command_gc = 0;
        for (i, (offset, len)) in commands.enumerate() {
            let op = IoOp::write(offset, len, Pattern::Random);
            let room = ppb - u64::from(run.ftl.active_next_page);
            let pages = (offset + len - 1) / 4096 - offset / 4096 + 1;
            let erases = run.stats().erases;
            let done = run.submit(0, op);
            let service = page.service_time(&op) + page.program_per_page(offset, len);
            assert_eq!(done, page.queue.reserve(0, service), "command {i}");
            run.ftl.assert_same(&page.ftl, i);
            let (a, b) = (run.stats(), page.stats());
            assert_eq!(a.overwrites, b.overwrites, "overwrites after {i}");
            assert_eq!(
                (a.erases, a.gc_relocated_pages, a.gc_blocks_scanned),
                (b.erases, b.gc_relocated_pages, b.gc_blocks_scanned),
                "GC after {i}"
            );
            assert_eq!(
                (a.nand_pages_programmed, a.wear_bytes),
                (b.nand_pages_programmed, b.wear_bytes),
                "wear after {i}"
            );
            if (1..pages).contains(&room) && run.stats().erases > erases {
                mid_command_gc += 1;
            }
            if i % 1000 == 0 {
                run.ftl.check_invariants();
            }
        }
        run.ftl.check_invariants();
        assert!(
            run.stats().erases > 100,
            "only {} GC rounds",
            run.stats().erases
        );
        (run, mid_command_gc)
    }

    #[test]
    fn run_matches_per_page_unaligned_random() {
        let cap = 4 << 20;
        let mut x = 7;
        let (ssd, _) = run_matches_per_page((0..20_000).map(|_| {
            // 1 B to 1 MiB, log-spread so short and long runs both occur.
            let len = 1 + splitmix64(&mut x) % (1 << (splitmix64(&mut x) % 21));
            (splitmix64(&mut x) % (cap - len + 1), len)
        }));
        assert!(ssd.stats().overwrites.ops > 0);
    }

    #[test]
    fn run_matches_per_page_sequential_wraparound() {
        // Three blocks and a ragged page per command, wrapping at the end.
        let cap = 4 << 20;
        let mut pos = 0;
        run_matches_per_page((0..2_000).map(|_| {
            let offset = pos % cap;
            let len = (3 * (256 << 10) + 12_388).min(cap - offset);
            pos = offset + len;
            (offset, len)
        }));
    }

    #[test]
    fn run_matches_per_page_gc_inside_a_command() {
        // Fill all but one page, so the active block's fill stays odd,
        // then hammer alternate page pairs: victims keep the other pairs
        // valid, and a 2-page write finds the block full after its first
        // page.
        let fill = std::iter::once((0, 1023 * 4096));
        let hammer = (0..60).flat_map(|_| (0..1024).step_by(4).map(|p| (p * 4096, 8192)));
        let (ssd, mid_command_gc) = run_matches_per_page(fill.chain(hammer));
        assert!(ssd.stats().gc_relocated_pages > 0, "hammering relocates");
        assert!(mid_command_gc > 0, "no GC ran inside a command");
    }

    #[test]
    fn gc_relocation_counts_are_pinned() {
        // Mixed 512 B to 64 KiB writes, three quarters of them on an eighth
        // of an 8 MiB device: GC relocates the cold pages. The values were
        // recorded with the page-by-page FTL.
        let mut ssd = Ssd::new(SsdConfig {
            capacity: 8 << 20,
            ..SsdConfig::default()
        });
        let cap = ssd.capacity();
        let mut x = 23;
        for _ in 0..10_000 {
            let len = 512 * (1 + splitmix64(&mut x) % 128);
            let span = if splitmix64(&mut x).is_multiple_of(4) {
                cap
            } else {
                cap / 8
            };
            let offset = splitmix64(&mut x) % (span - len + 1) / 512 * 512;
            ssd.submit(0, IoOp::write(offset, len, Pattern::Random));
        }
        let s = ssd.stats();
        assert_eq!(
            (
                s.erases,
                s.gc_relocated_pages,
                s.overwrites.bytes,
                s.nand_pages_programmed
            ),
            (8_176, 429_414, 322_900_480, 518_752)
        );
    }

    /// Runs 4 KiB writes at `pages` on a 4 MiB / 25 %-OP device with every
    /// GC round checked against the reference scan and the invariants
    /// checked every 1 000 writes; returns the device.
    fn differential(pages: impl Iterator<Item = u64>) -> Ssd {
        let mut ssd = Ssd::new(SsdConfig {
            capacity: 4 << 20, // 16 logical blocks of 256 KiB, 20 physical
            over_provision: 0.25,
            ..SsdConfig::default()
        });
        ssd.ftl.check_victims = true;
        for (i, lpn) in pages.enumerate() {
            ssd.submit(0, IoOp::write(lpn * 4096, 4096, Pattern::Random));
            if i % 1000 == 0 {
                ssd.ftl.check_invariants();
            }
        }
        ssd.ftl.check_invariants();
        let stats = ssd.stats();
        assert!(stats.erases > 100, "only {} GC rounds", stats.erases);
        ssd
    }

    #[test]
    fn indexed_victim_matches_the_scan_uniform_random() {
        let mut x = 7;
        let ssd = differential((0..40_000).map(|_| splitmix64(&mut x) % 1024));
        assert!(ssd.stats().gc_relocated_pages > 0, "random GC relocates");
    }

    #[test]
    fn indexed_victim_matches_the_scan_hammering_even_pages() {
        // Fill once, then hammer only the even pages: victims keep their
        // odd pages valid, so every round relocates.
        let fill = 0..1024;
        let hammer = (0..60).flat_map(|_| (0..1024).step_by(2));
        let ssd = differential(fill.chain(hammer));
        assert!(ssd.stats().gc_relocated_pages > 0, "hammering relocates");
    }

    #[test]
    fn indexed_victim_matches_the_scan_sequential_wraparound() {
        let ssd = differential((0..40_000).map(|i| i % 1024));
        assert_eq!(
            ssd.stats().gc_relocated_pages,
            0,
            "sequential victims are fully invalid"
        );
    }

    #[test]
    fn victim_selection_examines_a_bounded_number_of_positions() {
        // Default 2 GiB device (9 216 blocks, where the scan visited all of
        // them per erase) and a 256 MiB one.
        for capacity in [SsdConfig::default().capacity, 256 << 20] {
            let mut ssd = Ssd::new(SsdConfig {
                capacity,
                ..SsdConfig::default()
            });
            let pages = capacity / 4096;
            let mut x = 11;
            while ssd.stats().erases < 2000 {
                let lpn = splitmix64(&mut x) % pages;
                ssd.submit(0, IoOp::write(lpn * 4096, 4096, Pattern::Random));
            }
            let stats = ssd.stats();
            assert!(
                stats.gc_blocks_scanned > 0 && stats.gc_blocks_scanned <= 256 * stats.erases,
                "{capacity} B: {} positions over {} erases",
                stats.gc_blocks_scanned,
                stats.erases
            );
        }
    }

    #[test]
    fn sequential_faster_than_random() {
        let ssd = small_ssd();
        let r = ssd.service_time(&IoOp::read(0, 4096, Pattern::Random));
        let s = ssd.service_time(&IoOp::read(0, 4096, Pattern::Sequential));
        assert!(r > 2 * s, "random {r} vs sequential {s}");
        let rw = ssd.service_time(&IoOp::write(0, 4096, Pattern::Random));
        let sw = ssd.service_time(&IoOp::write(0, 4096, Pattern::Sequential));
        assert!(rw > 2 * sw, "random {rw} vs sequential {sw}");
    }

    #[test]
    fn large_sequential_hits_bandwidth() {
        let ssd = small_ssd();
        let len = 8 << 20; // 8 MiB
        let t = ssd.service_time(&IoOp::read(0, len, Pattern::Sequential));
        let ideal = len * SECS / ssd.config().read_bandwidth;
        assert!(t < ideal + ideal / 10, "t {t} vs ideal {ideal}");
    }

    #[test]
    fn queue_depth_allows_parallel_commands() {
        let mut ssd = small_ssd();
        let t1 = ssd.submit(0, IoOp::read(0, 4096, Pattern::Random));
        let t2 = ssd.submit(0, IoOp::read(8192, 4096, Pattern::Random));
        assert_eq!(t1, t2, "two commands fit the queue simultaneously");
        // Saturate the queue: the (QD+1)-th command must wait.
        let mut last = 0;
        for i in 0..ssd.config().queue_depth as u64 {
            last = ssd.submit(0, IoOp::read(i * 4096, 4096, Pattern::Random));
        }
        assert!(last > t1);
    }

    #[test]
    fn overwrites_counted_only_on_rewrite() {
        let mut ssd = small_ssd();
        ssd.submit(0, IoOp::write(0, 8192, Pattern::Sequential));
        assert_eq!(ssd.stats().overwrites.ops, 0);
        ssd.submit(0, IoOp::write(0, 4096, Pattern::Random));
        assert_eq!(ssd.stats().overwrites.ops, 1);
        assert_eq!(ssd.stats().overwrites.bytes, 4096);
        // A fresh region is again not an overwrite.
        ssd.submit(0, IoOp::write(1 << 20, 4096, Pattern::Random));
        assert_eq!(ssd.stats().overwrites.ops, 1);
    }

    #[test]
    fn sub_page_overwrite_counts_overlap_bytes() {
        let mut ssd = small_ssd();
        ssd.submit(0, IoOp::write(0, 4096, Pattern::Random));
        ssd.submit(0, IoOp::write(100, 200, Pattern::Random));
        assert_eq!(ssd.stats().overwrites.bytes, 200);
    }

    #[test]
    fn sustained_overwrite_triggers_gc_and_erases() {
        let mut ssd = Ssd::new(SsdConfig {
            capacity: 4 << 20, // 4 MiB: 16 blocks of 256 KiB
            over_provision: 0.25,
            ..SsdConfig::default()
        });
        // Fill the device once, then overwrite it several times.
        let mut now = 0;
        for round in 0..6u64 {
            for off in (0..(4 << 20)).step_by(4096) {
                now = ssd.submit(now, IoOp::write(off, 4096, Pattern::Random));
            }
            if round == 0 {
                assert_eq!(ssd.stats().erases, 0, "first fill needs no GC");
            }
        }
        assert!(ssd.stats().erases > 0, "overwrites must trigger GC");
        assert!(
            ssd.stats().write_amplification(4096) >= 1.0,
            "WA must be >= 1"
        );
    }

    #[test]
    fn wear_tracks_write_volume() {
        // Two devices, one written 4x more: it must erase more.
        let cfg = SsdConfig {
            capacity: 4 << 20,
            ..SsdConfig::default()
        };
        let mut a = Ssd::new(cfg.clone());
        let mut b = Ssd::new(cfg);
        for round in 0..2u64 {
            let _ = round;
            for off in (0..(4 << 20)).step_by(4096) {
                a.submit(0, IoOp::write(off, 4096, Pattern::Random));
            }
        }
        for _ in 0..8u64 {
            for off in (0..(4 << 20)).step_by(4096) {
                b.submit(0, IoOp::write(off, 4096, Pattern::Random));
            }
        }
        assert!(b.stats().erases > a.stats().erases);
        let ratio = erase_ratio(b.stats().erases, a.stats().erases);
        assert!(ratio.is_some_and(|r| r > 1.0), "{ratio:?}");
    }

    #[test]
    fn wear_counts_programmed_bytes_including_gc() {
        let mut ssd = Ssd::new(SsdConfig {
            capacity: 4 << 20,
            over_provision: 0.25,
            ..SsdConfig::default()
        });
        assert_eq!(ssd.stats().wear_bytes, 0);
        ssd.submit(0, IoOp::write(0, 8192, Pattern::Sequential));
        assert_eq!(ssd.stats().wear_bytes, 8192, "no GC yet: wear = host bytes");
        // Reads never wear the flash.
        ssd.submit(0, IoOp::read(0, 8192, Pattern::Sequential));
        assert_eq!(ssd.stats().wear_bytes, 8192);
        // Fill once, then hammer only the even pages: GC victims keep
        // their odd pages valid, forcing relocations (physical wear beyond
        // the host write volume).
        for off in (0..(4 << 20)).step_by(4096) {
            ssd.submit(0, IoOp::write(off, 4096, Pattern::Random));
        }
        for _ in 0..8u64 {
            for off in (0..(4 << 20)).step_by(8192) {
                ssd.submit(0, IoOp::write(off, 4096, Pattern::Random));
            }
        }
        let host = ssd.stats().writes.bytes;
        assert!(
            ssd.stats().wear_bytes > host,
            "GC relocations must wear beyond host writes: {} vs {host}",
            ssd.stats().wear_bytes
        );
        assert_eq!(
            ssd.stats().wear_bytes,
            ssd.stats().nand_pages_programmed * ssd.config().page_size
        );
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn oversized_io_rejected() {
        let mut ssd = small_ssd();
        ssd.submit(0, IoOp::read((16 << 20) - 100, 4096, Pattern::Random));
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn io_wrapping_the_address_space_rejected() {
        let mut ssd = small_ssd();
        ssd.submit(0, IoOp::read(u64::MAX - 100, 4096, Pattern::Random));
    }

    #[test]
    #[should_panic(expected = "erase beyond capacity")]
    fn erase_wrapping_the_address_space_rejected() {
        let mut ssd = small_ssd();
        ssd.erase_region(0, u64::MAX - 100, 4096);
    }

    #[test]
    fn service_time_includes_transfer() {
        let ssd = small_ssd();
        let small = ssd.service_time(&IoOp::write(0, 4096, Pattern::Sequential));
        let big = ssd.service_time(&IoOp::write(0, 1 << 20, Pattern::Sequential));
        assert!(
            big > small + 800 * MICROS,
            "1 MiB at ~1.1 GB/s takes ~950 us"
        );
    }
}
