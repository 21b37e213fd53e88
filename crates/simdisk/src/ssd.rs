//! NAND SSD model: command-overhead latency plus a page-mapped FTL whose
//! garbage collection charges real time and counts erase cycles.

use simdes::{Resource, SimTime};

use crate::lse::LseModel;
use crate::stats::DeviceStats;
use crate::{IoKind, IoOp, Pattern};

const UNMAPPED: u32 = u32::MAX;

/// Entries per flash-table page: 64 KiB of `u32`s.
const TABLE_PAGE: usize = 16 << 10;

/// The logical map (`map`): a table of `u32` entries, all `UNMAPPED`
/// until written. Only a directory is allocated up front; a page of
/// [`TABLE_PAGE`] entries is created, all unmapped, by the first write
/// into it, and reading an absent page, or past the end, returns
/// `UNMAPPED`. So a device holds map memory only where it has written.
/// 64 KiB pages keep the allocations per simulated op at the dense
/// table's count; 4 KiB pages did not.
#[derive(Debug, Clone)]
enum Table {
    Paged(Vec<Option<Box<[u32; TABLE_PAGE]>>>),
    /// The dense table the pages replaced, kept as the reference.
    #[cfg(test)]
    Dense(Box<[u32]>),
}

impl Table {
    /// A table of `len` entries holding no page.
    fn new(len: usize) -> Table {
        Table::Paged(vec![None; len.div_ceil(TABLE_PAGE)])
    }

    /// Entry `i`, `UNMAPPED` past the end (an owner run's continuation
    /// can name a page past the last logical one).
    fn get(&self, i: usize) -> u32 {
        match self {
            Table::Paged(pages) => pages
                .get(i / TABLE_PAGE)
                .and_then(Option::as_ref)
                .map_or(UNMAPPED, |page| page[i % TABLE_PAGE]),
            #[cfg(test)]
            Table::Dense(entries) => entries.get(i).copied().unwrap_or(UNMAPPED),
        }
    }

    /// Entry `i` for writing, creating its page.
    fn slot(&mut self, i: usize) -> &mut u32 {
        match self {
            Table::Paged(pages) => &mut page_mut(&mut pages[i / TABLE_PAGE])[i % TABLE_PAGE],
            #[cfg(test)]
            Table::Dense(entries) => &mut entries[i],
        }
    }

    /// Calls `f` on the entries `start..start + len`, one slice per page
    /// they span, creating absent pages.
    fn segments(&mut self, start: usize, len: usize, mut f: impl FnMut(&mut [u32])) {
        match self {
            Table::Paged(pages) => {
                let end = start + len;
                let mut at = start;
                while at < end {
                    let (page, offset) = (at / TABLE_PAGE, at % TABLE_PAGE);
                    let n = (TABLE_PAGE - offset).min(end - at);
                    f(&mut page_mut(&mut pages[page])[offset..offset + n]);
                    at += n;
                }
            }
            #[cfg(test)]
            Table::Dense(entries) => f(&mut entries[start..start + len]),
        }
    }

    /// Calls `f(i, entry)` on every entry `i` that is not `UNMAPPED`, in
    /// index order, visiting only present pages.
    fn for_each_mapped(&self, mut f: impl FnMut(usize, u32)) {
        let mut visit = |base: usize, entries: &[u32]| {
            for (i, &e) in entries.iter().enumerate() {
                if e != UNMAPPED {
                    f(base + i, e);
                }
            }
        };
        match self {
            Table::Paged(pages) => {
                for (p, page) in pages.iter().enumerate() {
                    if let Some(page) = page {
                        visit(p * TABLE_PAGE, &page[..]);
                    }
                }
            }
            #[cfg(test)]
            Table::Dense(entries) => visit(0, entries),
        }
    }
}

/// The page behind a directory slot, created all unmapped if absent.
fn page_mut(page: &mut Option<Box<[u32; TABLE_PAGE]>>) -> &mut [u32; TABLE_PAGE] {
    match page {
        Some(page) => page,
        None => page.insert(new_page()),
    }
}

/// A table page, all unmapped; out of line, as it runs once per page.
#[cold]
#[inline(never)]
fn new_page() -> Box<[u32; TABLE_PAGE]> {
    vec![UNMAPPED; TABLE_PAGE]
        .into_boxed_slice()
        .try_into()
        .expect("a table page holds TABLE_PAGE entries")
}

/// SSD configuration.
///
/// Defaults model a datacenter SATA/NVMe-class drive of the kind the paper's
/// Chameleon nodes carried, scaled down in capacity (2 GiB) to keep
/// simulated write volumes small. A device's logical map costs memory
/// only for the 64 KiB map pages it has written, and its other FTL tables
/// exist only from its GC horizon on, so a cluster of sixteen costs little
/// until its devices fill; past the horizon a closed block's owners cost
/// one 8-byte run per stretch of consecutive logical pages programmed into
/// it. The latency constants encode the
/// property the paper leans on: a small random command costs two orders of
/// magnitude more than its share of a large sequential stream.
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

/// The FTL's block geometry, derived from an [`SsdConfig`].
struct Geometry {
    logical_pages: u64,
    total_blocks: usize,
    gc_threshold_blocks: usize,
}

impl SsdConfig {
    /// Checks that the FTL can run this configuration: a non-empty page,
    /// 1 to `u16::MAX` pages per erase block (valid counts are `u16`), at
    /// least four erase blocks, physical page numbers below `u32::MAX`, a
    /// finite GC threshold below the block count, and a spare area
    /// (physical minus logical pages) of at least `gc_threshold_blocks`
    /// erase blocks. That spare is enough: when GC picks a victim, at most
    /// `gc_threshold_blocks − 1` blocks are free, and the active block
    /// holds a valid page or the page being rewritten is counted nowhere,
    /// so the closed blocks hold fewer valid pages than fit in them and
    /// some victim has fewer than `pages_per_block`. With less spare, GC
    /// can find no victim or loop forever. [`Ssd::new`] panics with the
    /// same message.
    pub fn validate(&self) -> Result<(), String> {
        self.geometry().map(|_| ())
    }

    fn geometry(&self) -> Result<Geometry, String> {
        if self.page_size == 0 {
            return Err("SSD page_size is zero".into());
        }
        let ppb = self.pages_per_block;
        if ppb == 0 || ppb > u32::from(u16::MAX) {
            return Err(format!(
                "SSD pages_per_block = {ppb} must be in 1..={} (valid counts are u16)",
                u16::MAX
            ));
        }
        let op = self.over_provision;
        if !op.is_finite() {
            return Err(format!("SSD over_provision = {op} must be finite"));
        }
        let logical_pages = self.capacity.div_ceil(self.page_size);
        let physical_pages = ((logical_pages as f64) * (1.0 + op)).ceil() as u64;
        let total_blocks = physical_pages.div_ceil(u64::from(ppb));
        if total_blocks < 4 {
            return Err(format!(
                "SSD too small: {total_blocks} erase blocks, the FTL needs at least 4"
            ));
        }
        if total_blocks > (u64::from(UNMAPPED) - 1) / u64::from(ppb) {
            return Err(format!(
                "SSD too large: {total_blocks} erase blocks of {ppb} pages overflow \
                 32-bit page numbers"
            ));
        }
        let total_blocks = total_blocks as usize;
        let threshold = self.gc_free_threshold;
        if !threshold.is_finite() {
            return Err(format!(
                "SSD gc_free_threshold = {threshold} must be finite"
            ));
        }
        let gc_threshold_blocks = ((total_blocks as f64 * threshold).ceil() as usize).max(2);
        if gc_threshold_blocks >= total_blocks {
            return Err(format!(
                "SSD gc_free_threshold = {threshold} keeps {gc_threshold_blocks} of \
                 {total_blocks} erase blocks free, leaving none to write"
            ));
        }
        let spare = (total_blocks as u64 * u64::from(ppb)).saturating_sub(logical_pages);
        if spare < gc_threshold_blocks as u64 * u64::from(ppb) {
            return Err(format!(
                "SSD spare area of {spare} pages is below the {gc_threshold_blocks} \
                 erase blocks GC keeps free (over_provision = {op})"
            ));
        }
        Ok(Geometry {
            logical_pages,
            total_blocks,
            gc_threshold_blocks,
        })
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
/// **Before its first GC** the device updates only `map`. Until then
/// allocation is a pure bump: block 0 is active first and free blocks pop
/// in ascending order, so the n-th programmed page sits at physical page
/// n, and the active block and page alone say how many pages were
/// programmed. A write run therefore stores its new locations into one
/// contiguous `map` slice, advances the active page, and touches nothing
/// else. GC first runs when the active block fills with fewer than
/// `gc_threshold_blocks` blocks free, at page index `(total_blocks −
/// gc_threshold_blocks + 1) × pages_per_block`: the *GC horizon*. The
/// first run that would program a page there first derives the other
/// tables from `map` in one pass (`derive_tables`): the page owners, a
/// block's valid count (the number of mapped pages in it), the closed
/// index (every block below the active one) and the free list (the
/// untouched tail). From then on every block is exactly one of *free*
/// (erased, on `free_blocks`), *active* (receiving writes) or *closed*
/// (retired from active, indexed in `closed` by its valid-page count so
/// the victim is found without visiting every block).
///
/// **Owners.** Every programmed page records the logical page it was
/// programmed for, its *owner*, and a page is valid iff `map` points back
/// at it: `map[owner] == ppa`. `map` is injective on valid pages, so an
/// invalid page may carry any owner, and an overwrite writes no reverse
/// entry; it only moves `map`. The active block keeps its owners dense,
/// one per page; retiring it compresses them into *owner runs*, one
/// `(first page, first lpn)` per stretch of pages whose lpns continue
/// each other, written once and dropped when GC erases the block. A run
/// covers its block's pages up to the next run's first page. `map` is
/// paged (see `Table`), so a device holds only the 64 KiB map pages it
/// has written, and no owner storage before derivation. GC scans a
/// victim only until it has relocated the block's valid count, so a
/// fully invalid victim costs no scan.
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
    map: Table,
    /// Owner runs of each block, empty unless closed (none before
    /// derivation).
    runs: Box<[Runs]>,
    /// The owner of each page of the active block (empty before
    /// derivation).
    active_owners: Box<[u32]>,
    /// valid page count per physical block
    valid: Vec<u16>,
    /// stack of free (erased) block ids
    free_blocks: Vec<u32>,
    /// closed blocks by valid-page count
    closed: ValidBuckets,
    active_block: u32,
    active_next_page: u32,
    gc_threshold_blocks: usize,
    /// Whether the tables beyond `map` are derived (see the type doc);
    /// false in the map-only state before the GC horizon.
    derived: bool,
    /// Re-entrancy guard: relocations during GC allocate pages, which must
    /// not trigger a nested GC pass (the inner pass could erase and reuse
    /// the outer pass's victim mid-relocation).
    gc_active: bool,
    /// Check every GC round's victim against the scan the index replaced.
    #[cfg(test)]
    check_victims: bool,
}

/// A closed block's owner runs, `(first page, first lpn)` in page order
/// (see [`Ftl`]).
type Runs = Box<[(u16, u32)]>;

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

/// Drops `n` valid pages from block `blk`, refiling it once if closed.
fn invalidate(valid: &mut [u16], closed: &mut ValidBuckets, active: u32, blk: u32, n: u16) {
    if n == 0 {
        return;
    }
    let v = valid[blk as usize];
    valid[blk as usize] = v - n;
    // A mapped page sits in the active block or in a closed one.
    if blk != active {
        closed.remove(v, blk as usize);
        closed.insert(v - n, blk as usize);
    }
}

/// Compresses a block's owners, one per programmed page, into owner runs:
/// a run starts wherever the lpn does not continue the previous page's.
fn compress(owners: &[u32]) -> Runs {
    let starts = |page: &usize| *page == 0 || owners[*page] != owners[page - 1].wrapping_add(1);
    let mut runs = Vec::with_capacity((0..owners.len()).filter(starts).count());
    runs.extend((0..owners.len()).filter(starts).map(|page| {
        debug_assert!(page <= usize::from(u16::MAX), "page {page} is not a u16");
        (page as u16, owners[page])
    }));
    runs.into_boxed_slice()
}

/// `(page, owner)` for every page a block's `runs` cover, in page order;
/// pages before the first run have no owner.
fn owners(runs: &[(u16, u32)], ppb: u32) -> impl Iterator<Item = (u32, usize)> + '_ {
    runs.iter().enumerate().flat_map(move |(i, &(first, lpn))| {
        let end = runs.get(i + 1).map_or(ppb, |&(next, _)| u32::from(next));
        debug_assert!(u32::from(first) < end, "owner runs out of page order");
        (u32::from(first)..end)
            .map(move |page| (page, lpn as usize + (page - u32::from(first)) as usize))
    })
}

impl Ftl {
    fn new(cfg: &SsdConfig) -> Ftl {
        let Geometry {
            logical_pages,
            total_blocks,
            gc_threshold_blocks,
        } = cfg.geometry().unwrap_or_else(|e| panic!("{e}"));
        Ftl {
            pages_per_block: cfg.pages_per_block,
            map: Table::new(logical_pages as usize),
            runs: Box::default(),
            active_owners: Box::default(),
            valid: vec![0; total_blocks],
            free_blocks: (1..total_blocks as u32).rev().collect(),
            closed: ValidBuckets::new(cfg.pages_per_block as usize + 1, total_blocks),
            active_block: 0,
            active_next_page: 0,
            gc_threshold_blocks,
            derived: false,
            gc_active: false,
            #[cfg(test)]
            check_victims: false,
        }
    }

    /// Pages programmed so far, while allocation is still a bump.
    fn programmed(&self) -> u64 {
        u64::from(self.active_block) * u64::from(self.pages_per_block)
            + u64::from(self.active_next_page)
    }

    /// Index of the first programmed page that can start GC.
    fn horizon(&self) -> u64 {
        (self.valid.len() - self.gc_threshold_blocks + 1) as u64 * u64::from(self.pages_per_block)
    }

    /// Derives the owners, the valid counts, the closed buckets and the
    /// free list from `map` and the active block (see [`Ftl`]), leaving
    /// the map-only state; a no-op once derived. One walk of `map` finds
    /// the extents where consecutive lpns sit on consecutive ppas; sorted
    /// by ppa and cut at block edges, they are the owner runs.
    fn derive_tables(&mut self) {
        if self.derived {
            return;
        }
        let ppb = self.pages_per_block;
        self.derived = true;
        // `(first ppa, first lpn, pages)`.
        let mut extents: Vec<(u32, u32, u32)> = Vec::new();
        self.map.for_each_mapped(|lpn, ppa| {
            self.valid[(ppa / ppb) as usize] += 1;
            match extents.last_mut() {
                Some((p, l, n)) if *p + *n == ppa && *l as usize + *n as usize == lpn => *n += 1,
                _ => extents.push((ppa, lpn as u32, 1)),
            }
        });
        extents.sort_unstable_by_key(|&(ppa, _, _)| ppa);
        self.runs = vec![Box::default(); self.valid.len()].into();
        let mut block_runs = Vec::new();
        let mut block = 0;
        for (mut ppa, mut lpn, mut pages) in extents {
            while pages > 0 {
                if ppa / ppb != block {
                    self.runs[block as usize] = block_runs.as_slice().into();
                    block_runs.clear();
                    block = ppa / ppb;
                }
                let n = pages.min(ppb - ppa % ppb);
                block_runs.push(((ppa % ppb) as u16, lpn));
                (ppa, lpn, pages) = (ppa + n, lpn + n, pages - n);
            }
        }
        self.runs[block as usize] = block_runs.into();
        // The active block keeps its owners dense.
        let active = self.active_block as usize;
        self.active_owners = vec![0; ppb as usize].into();
        let runs = std::mem::take(&mut self.runs[active]);
        for (page, lpn) in owners(&runs, self.active_next_page) {
            self.active_owners[page as usize] = lpn as u32;
        }
        for b in 0..active {
            self.closed.insert(self.valid[b], b);
        }
        self.free_blocks.truncate(self.valid.len() - 1 - active);
    }

    /// Writes the `pages` logical pages from `first` on, chunk by chunk
    /// (see [`Ftl`]), adding the wear cost incurred (including any GC the
    /// writes triggered) to `cost`; returns how many of them had been
    /// written before.
    fn write_run(&mut self, first: u64, pages: u64, cost: &mut FlashCost) -> u64 {
        if !self.derived {
            let n = self.programmed();
            if n + pages <= self.horizon() {
                return self.bump_map(first, pages, n, cost);
            }
            self.derive_tables();
        }
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

    /// Writes the `pages` logical pages from `first` on before the first
    /// GC, where the `n`-th programmed page sits at physical page `n`:
    /// only `map` and the active page change. Returns how many had been
    /// written before.
    fn bump_map(&mut self, first: u64, pages: u64, n: u64, cost: &mut FlashCost) -> u64 {
        let mut ppa = n as u32;
        let mut mapped = 0;
        self.map.segments(first as usize, pages as usize, |slots| {
            for slot in slots {
                mapped += u64::from(*slot != UNMAPPED);
                *slot = ppa;
                ppa += 1;
            }
        });
        // A full active block stays active until the next allocation.
        let (end, ppb) = (n + pages, u64::from(self.pages_per_block));
        let active = (end - 1) / ppb;
        self.active_block = active as u32;
        self.active_next_page = (end - active * ppb) as u32;
        cost.host_pages += pages;
        mapped
    }

    /// Writes one logical page, adding the wear cost incurred (including
    /// any GC this write triggered) to `cost`; returns whether the page
    /// had been written before.
    fn write_page(&mut self, lpn: u64, cost: &mut FlashCost) -> bool {
        let ppb = self.pages_per_block;
        // Invalidate the previous location.
        let old = self.map.get(lpn as usize);
        let overwrite = old != UNMAPPED;
        if overwrite {
            invalidate(
                &mut self.valid,
                &mut self.closed,
                self.active_block,
                old / ppb,
                1,
            );
            // GC inside `allocate_page` must not see the old page valid.
            *self.map.slot(lpn as usize) = UNMAPPED;
        }
        let ppa = self.allocate_page(cost);
        *self.map.slot(lpn as usize) = ppa;
        self.active_owners[(ppa % ppb) as usize] = lpn as u32;
        self.valid[(ppa / ppb) as usize] += 1;
        cost.host_pages += 1;
        overwrite
    }

    /// Writes the `k` logical pages from `lpn` on into the next `k` pages
    /// of the active block, which must have room for them; returns how
    /// many had been written before.
    fn fill_active(&mut self, lpn: u64, k: u32, cost: &mut FlashCost) -> u64 {
        let ppb = self.pages_per_block;
        debug_assert!(k <= ppb - self.active_next_page);
        let active = self.active_block;
        let base = active * ppb + self.active_next_page;
        let (valid, closed) = (&mut self.valid, &mut self.closed);
        let mut mapped = 0;
        // The stretch of consecutive old locations in one block.
        let (mut stretch_block, mut stretch) = (UNMAPPED, 0);
        let mut ppa = base;
        self.map.segments(lpn as usize, k as usize, |slots| {
            for slot in slots {
                let old = std::mem::replace(slot, ppa);
                ppa += 1;
                if old != UNMAPPED {
                    mapped += 1;
                    let blk = old / ppb;
                    if blk != stretch_block {
                        invalidate(valid, closed, active, stretch_block, stretch);
                        (stretch_block, stretch) = (blk, 0);
                    }
                    stretch += 1;
                }
            }
        });
        invalidate(valid, closed, active, stretch_block, stretch);
        let page = (base % ppb) as usize;
        for (owner, lpn) in self.active_owners[page..page + k as usize]
            .iter_mut()
            .zip(lpn as u32..)
        {
            *owner = lpn;
        }
        valid[active as usize] += k as u16;
        self.active_next_page += k;
        cost.host_pages += u64::from(k);
        mapped
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
            self.runs[retired] = compress(&self.active_owners[..self.active_next_page as usize]);
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
            // Relocate the victim's valid pages, in page order, into the
            // active stream; the scan stops at the last of them. The
            // victim's runs go with its erase.
            let ppb = self.pages_per_block;
            let runs = std::mem::take(&mut self.runs[victim]);
            let base = victim as u32 * ppb;
            for (page, lpn) in owners(&runs, ppb) {
                if self.valid[victim] == 0 {
                    break;
                }
                if self.map.get(lpn) != base + page {
                    continue;
                }
                self.valid[victim] -= 1;
                let new_ppa = self.allocate_page(cost);
                *self.map.slot(lpn) = new_ppa;
                self.active_owners[(new_ppa % ppb) as usize] = lpn as u32;
                self.valid[(new_ppa / ppb) as usize] += 1;
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
    ///
    /// # Panics
    /// Panics with [`SsdConfig::validate`]'s message if the FTL cannot run
    /// the configuration.
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
    /// pages, it never unmaps one). The overwritten bytes are the mapped
    /// pages, less the unwritten head of the first page and tail of the
    /// last one where those were mapped.
    fn program(&mut self, offset: u64, len: u64) -> SimTime {
        let ps = self.cfg.page_size;
        let end = offset + len;
        let first = offset / ps;
        let last = (end - 1) / ps;
        let mapped = |lpn: u64| self.ftl.map.get(lpn as usize) != UNMAPPED;
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

        /// Every entry of a table of `len` entries, dense.
        fn entries(table: &Table, len: usize) -> Vec<u32> {
            match table {
                Table::Paged(pages) => {
                    let mut all = Vec::with_capacity(pages.len() * TABLE_PAGE);
                    for page in pages {
                        match page {
                            Some(page) => all.extend_from_slice(&page[..]),
                            None => all.resize(all.len() + TABLE_PAGE, UNMAPPED),
                        }
                    }
                    assert!(
                        all[len..].iter().all(|&e| e == UNMAPPED),
                        "entry past the end"
                    );
                    all.truncate(len);
                    all
                }
                Table::Dense(entries) => {
                    assert_eq!(entries.len(), len);
                    entries.to_vec()
                }
            }
        }

        /// Entries `map` has room for: whole pages when paged, so at least
        /// the logical page count.
        fn map_room(&self) -> usize {
            match &self.map {
                Table::Paged(pages) => pages.len() * TABLE_PAGE,
                Table::Dense(entries) => entries.len(),
            }
        }

        /// The valid-owner view: for each physical page, the lpn whose
        /// `map` entry points at it, read through the owner runs and the
        /// active block's owners; `UNMAPPED` where the page is invalid.
        fn valid_owners(&self) -> Vec<u32> {
            let ppb = self.pages_per_block;
            let mut view = vec![UNMAPPED; self.valid.len() * ppb as usize];
            let mut own = |block: u32, page: u32, lpn: usize| {
                let ppa = block * ppb + page;
                if self.map.get(lpn) == ppa {
                    view[ppa as usize] = lpn as u32;
                }
            };
            for (block, runs) in self.runs.iter().enumerate() {
                for (page, lpn) in owners(runs, ppb) {
                    own(block as u32, page, lpn);
                }
            }
            let active = &self.active_owners[..self.active_next_page as usize];
            for (page, &lpn) in active.iter().enumerate() {
                own(self.active_block, page as u32, lpn as usize);
            }
            view
        }

        /// Table pages held by `map` and owner runs held by closed blocks.
        fn table_pages(&self) -> (usize, usize) {
            let held = match &self.map {
                Table::Paged(pages) => pages.iter().filter(|p| p.is_some()).count(),
                Table::Dense(_) => panic!("a dense table holds no pages"),
            };
            (held, self.runs.iter().map(|runs| runs.len()).sum())
        }

        /// Free, active and closed partition the blocks; every closed block
        /// sits in exactly the bucket of its valid count; each block's
        /// valid count is the number of mapped pages in it; every mapped
        /// page's owner is the lpn mapped to it; only closed blocks hold
        /// owner runs. Derives the tables first.
        fn check_invariants(&mut self) {
            self.derive_tables();
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
                } else {
                    assert!(self.runs[b].is_empty(), "open block {b} holds owner runs");
                }
            }
            for (v, &n) in self.closed.len.iter().enumerate() {
                let bits = &self.closed.bits[v * self.closed.words..][..self.closed.words];
                let ones: u32 = bits.iter().map(|w| w.count_ones()).sum();
                assert_eq!(ones, n, "bucket {v} population");
            }
            let filed_total: u32 = self.closed.len.iter().sum();
            assert_eq!(filed_total as usize, closed);
            let ppb = self.pages_per_block;
            let (map, owners) = (
                Ftl::entries(&self.map, self.map_room()),
                self.valid_owners(),
            );
            let mut mapped = vec![0u16; self.valid.len()];
            for (lpn, &ppa) in map.iter().enumerate() {
                if ppa != UNMAPPED {
                    assert_eq!(
                        owners[ppa as usize], lpn as u32,
                        "owner of lpn {lpn}'s page"
                    );
                    mapped[(ppa / ppb) as usize] += 1;
                }
            }
            assert_eq!(self.valid, mapped, "valid counts");
        }

        /// Same mapping, valid owners, valid counts, closed buckets, free
        /// list and active block and page as `other`. Derives both sides'
        /// tables first.
        fn assert_same(&mut self, other: &mut Ftl, command: usize) {
            self.derive_tables();
            other.derive_tables();
            let len = self.map_room().min(other.map_room());
            let same = Ftl::entries(&self.map, len) == Ftl::entries(&other.map, len);
            assert!(same, "map differs after command {command}");
            let same = self.valid_owners() == other.valid_owners();
            assert!(same, "valid owners differ after {command}");
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
        /// The eager FTL the map-only state replaced, on the dense map the
        /// pages replaced, kept as the reference: a device that holds every
        /// map entry from construction and derives its tables there, so it
        /// keeps every table from its first write on.
        fn eager(cfg: SsdConfig) -> Ssd {
            let mut ssd = Ssd::new(cfg);
            let geometry = ssd.cfg.geometry().unwrap();
            ssd.ftl.map = Table::Dense(vec![UNMAPPED; geometry.logical_pages as usize].into());
            ssd.ftl.derive_tables();
            ssd
        }

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
    /// programming runs and one page by page (derived at construction),
    /// with every GC round checked against the reference scan. After each
    /// command both must agree on completion time, FTL state and wear
    /// counters; the invariants are checked every 1 000 commands. Returns the run device and how many
    /// commands ran GC after their first page.
    fn run_matches_per_page(commands: impl Iterator<Item = (u64, u64)>) -> (Ssd, u64) {
        let cfg = SsdConfig {
            capacity: 4 << 20,
            over_provision: 0.25,
            ..SsdConfig::default()
        };
        let ppb = u64::from(cfg.pages_per_block);
        let (mut run, mut page) = (Ssd::new(cfg.clone()), Ssd::eager(cfg));
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
            run.ftl.assert_same(&mut page.ftl, i);
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

    /// 16 logical blocks of 256 KiB, 20 physical: the GC horizon is page
    /// 19 × 64 = 1 216.
    fn op25() -> SsdConfig {
        SsdConfig {
            capacity: 4 << 20,
            over_provision: 0.25,
            ..SsdConfig::default()
        }
    }

    /// 32 768 logical pages of 512 B (two `map` pages) in 854 blocks of
    /// 48: the GC horizon is page 803 × 48 = 38 544.
    fn across_table_pages() -> SsdConfig {
        SsdConfig {
            page_size: 512,
            pages_per_block: 48,
            capacity: 16 << 20,
            over_provision: 0.25,
            ..SsdConfig::default()
        }
    }

    /// Runs `(offset, len)` writes on two `cfg` devices, one on paged
    /// tables keeping only its map until its GC horizon, and one on dense
    /// tables derived at construction. After each command both must agree
    /// on completion time, every counter and the map, and once the first
    /// has derived, on every table. Returns the paged device and the
    /// command that derived it, if any did.
    fn map_only_matches_eager(
        cfg: SsdConfig,
        commands: impl Iterator<Item = (u64, u64)>,
    ) -> (Ssd, Option<usize>) {
        let (mut lazy, mut eager) = (Ssd::new(cfg.clone()), Ssd::eager(cfg));
        let mut derived_at = None;
        let logical = eager.ftl.map_room();
        for (i, (offset, len)) in commands.enumerate() {
            let op = IoOp::write(offset, len, Pattern::Random);
            assert_eq!(lazy.submit(0, op), eager.submit(0, op), "command {i}");
            assert_eq!(lazy.stats(), eager.stats(), "stats after {i}");
            if lazy.ftl.derived {
                if derived_at.is_none() {
                    derived_at = Some(i);
                    lazy.ftl.check_invariants();
                }
                lazy.ftl.assert_same(&mut eager.ftl, i);
            } else {
                let same =
                    Ftl::entries(&lazy.ftl.map, logical) == Ftl::entries(&eager.ftl.map, logical);
                assert!(same, "map differs after {i}");
            }
        }
        if derived_at.is_some() {
            lazy.ftl.check_invariants();
        }
        (lazy, derived_at)
    }

    /// `map_only_matches_eager` on a stream that must run well past the
    /// horizon: the device derives after its first command and collects.
    /// Returns the paged device.
    fn map_only_matches_eager_past_the_horizon(
        cfg: SsdConfig,
        commands: impl Iterator<Item = (u64, u64)>,
    ) -> Ssd {
        let (ssd, derived_at) = map_only_matches_eager(cfg, commands);
        let derived_at = derived_at.expect("the stream never derived");
        assert!(derived_at > 0, "derived at the first command");
        assert!(ssd.stats().erases > 0, "the stream never collected");
        ssd
    }

    #[test]
    fn map_only_matches_eager_unaligned_random() {
        let cap = 4 << 20;
        let mut x = 19;
        map_only_matches_eager_past_the_horizon(
            op25(),
            (0..5_000).map(|_| {
                // 1 B to 256 KiB, log-spread.
                let len = 1 + splitmix64(&mut x) % (1 << (splitmix64(&mut x) % 19));
                (splitmix64(&mut x) % (cap - len + 1), len)
            }),
        );
    }

    #[test]
    fn map_only_matches_eager_sequential_wraparound() {
        // Three blocks and a ragged page per command: the deriving command
        // crosses the horizon mid-run.
        let cap = 4 << 20;
        let mut pos = 0;
        map_only_matches_eager_past_the_horizon(
            op25(),
            (0..300).map(|_| {
                let offset = pos % cap;
                let len = (3 * (256 << 10) + 12_388).min(cap - offset);
                pos = offset + len;
                (offset, len)
            }),
        );
    }

    #[test]
    fn map_only_matches_eager_hammering_even_pages() {
        let fill = (0..1024).map(|p| (p * 4096, 4096));
        let hammer = (0..8).flat_map(|_| (0..1024).step_by(2).map(|p| (p * 4096, 4096)));
        let ssd = map_only_matches_eager_past_the_horizon(op25(), fill.chain(hammer));
        assert!(ssd.stats().gc_relocated_pages > 0, "hammering relocates");
    }

    #[test]
    fn map_only_matches_eager_across_table_pages() {
        // Fill the device with ragged commands that straddle the map's
        // page edge, then write 512 B to 64 KiB, three quarters of it on
        // an eighth of the device: GC relocates the cold pages.
        let cap = 16 << 20;
        let fill = (0..cap)
            .step_by(208 << 10)
            .map(|o| (o, (208 << 10).min(cap - o)));
        let mut x = 29;
        let hot_cold = (0..1_500).map(move |_| {
            let len = 512 * (1 + splitmix64(&mut x) % 128);
            let span = if splitmix64(&mut x).is_multiple_of(4) {
                cap
            } else {
                cap / 8
            };
            (splitmix64(&mut x) % (span - len + 1), len)
        });
        let ssd =
            map_only_matches_eager_past_the_horizon(across_table_pages(), fill.chain(hot_cold));
        assert_eq!(ssd.ftl.table_pages(), (2, 1431));
        assert!(ssd.stats().gc_relocated_pages > 0, "cold pages relocate");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Any write stream keeps a map-only device and an eager one in
        /// agreement after every command.
        #[test]
        fn map_only_matches_eager_on_any_stream(
            commands in proptest::collection::vec((0u64..4 << 20, 1u64..128 << 10), 200..500)
        ) {
            let cap = 4 << 20;
            map_only_matches_eager(
                op25(),
                commands.into_iter().map(|(offset, len)| (offset % (cap - len + 1), len)),
            );
        }
    }

    #[test]
    fn map_only_until_the_horizon_then_derive_and_collect() {
        let mut ssd = Ssd::new(op25());
        let horizon = ssd.ftl.horizon();
        assert_eq!(horizon, 19 * 64);
        for p in 0..horizon {
            ssd.submit(0, IoOp::write(p % 1024 * 4096, 4096, Pattern::Random));
        }
        assert!(!ssd.ftl.derived);
        assert_eq!(ssd.ftl.programmed(), horizon);
        assert_eq!((ssd.ftl.active_block, ssd.ftl.active_next_page), (18, 64));
        assert_eq!(
            ssd.ftl.table_pages(),
            (1, 0),
            "owner runs before the horizon"
        );
        assert!(
            ssd.ftl.runs.is_empty() && ssd.ftl.active_owners.is_empty(),
            "owner storage before the horizon"
        );
        assert!(ssd.ftl.valid.iter().all(|&v| v == 0), "valid counted");
        assert!(ssd.ftl.closed.len.iter().all(|&n| n == 0), "blocks closed");
        assert_eq!(ssd.stats().erases, 0);
        ssd.submit(0, IoOp::write(0, 4096, Pattern::Random));
        assert!(ssd.ftl.derived, "the horizon page derives");
        assert!(ssd.stats().erases > 0, "the horizon page collects");
        ssd.ftl.check_invariants();
    }

    #[test]
    fn tables_hold_pages_only_where_written() {
        let mut ssd = Ssd::with_defaults();
        assert_eq!(ssd.ftl.table_pages(), (0, 0), "a fresh device");
        // A `map` page covers 64 MiB of logical space. These writes touch
        // map pages 0, 5, 9 and 10 and program physical pages 0 to 3.
        let span = TABLE_PAGE as u64 * 4096;
        for (offset, len) in [
            (0, 4096),
            (5 * span + 7 * 4096, 4096),
            (10 * span - 4096, 8192),
        ] {
            ssd.submit(0, IoOp::write(offset, len, Pattern::Random));
        }
        assert_eq!(ssd.ftl.table_pages(), (4, 0));
        // Map pages 1 to 4, programming physical pages 4 to 65 539.
        for page in 1..5 {
            ssd.submit(0, IoOp::write(page * span, span, Pattern::Sequential));
        }
        assert_eq!(ssd.ftl.table_pages(), (8, 0));
        assert!(!ssd.ftl.derived);
        // Every programmed page is mapped. Block 0 holds four runs (lpns
        // 0, 81 927, 163 839 and 16 384 on), and the sequential stretch
        // from physical page 4 on is cut into one run for each of closed
        // blocks 1 to 1 023; active block 1 024 keeps its owners dense.
        ssd.ftl.derive_tables();
        assert_eq!(ssd.ftl.active_block, 1024);
        assert_eq!(ssd.ftl.table_pages(), (8, 4 + 1023));
        ssd.ftl.check_invariants();
    }

    #[test]
    fn sequential_fill_leaves_one_owner_run_per_closed_block() {
        // Four passes of page-aligned commands of three blocks and five
        // pages: lpns wrap at a block edge and no victim holds a valid
        // page, so every block is programmed with 64 consecutive lpns.
        let cap = 4 << 20;
        let mut ssd = Ssd::new(op25());
        let mut pos = 0;
        while pos < 4 * cap {
            let offset = pos % cap;
            let len = (3 * (256 << 10) + 5 * 4096).min(cap - offset);
            ssd.submit(0, IoOp::write(offset, len, Pattern::Sequential));
            pos += len;
        }
        assert!(ssd.stats().erases > 0, "the stream never collected");
        assert_eq!(ssd.stats().gc_relocated_pages, 0);
        ssd.ftl.check_invariants();
        let closed: u32 = ssd.ftl.closed.len.iter().sum();
        for b in 0..ssd.ftl.valid.len() {
            let filed = (0..ssd.ftl.closed.len.len()).any(|v| {
                ssd.ftl.closed.bits[v * ssd.ftl.closed.words + b / 64] >> (b % 64) & 1 == 1
            });
            assert_eq!(ssd.ftl.runs[b].len(), usize::from(filed), "block {b}");
        }
        assert_eq!(ssd.ftl.table_pages(), (1, closed as usize));
    }

    #[test]
    fn overwrite_whose_gc_collects_the_old_page() {
        // Fill the 16 logical blocks, then overwrite lpns 2 to 63 of block
        // 0, 60 pages each of blocks 1 and 2 and 10 of block 3: 1 216
        // pages, the horizon, with block 0 holding the fewest valid pages
        // (lpns 0 and 1). Overwriting lpn 0 leaves block 0 one valid page
        // and finds the active block full: GC picks block 0 first, where
        // the old page of lpn 0 sits before lpn 1. Relocating lpn 1 opens
        // the last free block, so a second round collects block 1 (lpns
        // 124 to 127).
        let mut ssd = Ssd::new(op25());
        let write =
            |first: u64, pages: u64| IoOp::write(first * 4096, pages * 4096, Pattern::Random);
        for (first, pages) in [(0, 1024), (2, 62), (64, 60), (128, 60), (192, 10)] {
            ssd.submit(0, write(first, pages));
        }
        assert_eq!(ssd.ftl.programmed(), ssd.ftl.horizon());
        ssd.submit(0, write(0, 1));
        let s = ssd.stats();
        assert_eq!((s.erases, s.gc_relocated_pages), (2, 5));
        // lpn 1 moved to block 19 and lpn 0 went to block 1, active again.
        assert_eq!(ssd.ftl.map.get(1), 19 * 64);
        assert_eq!(ssd.ftl.map.get(0), 64);
        ssd.ftl.check_invariants();
    }

    #[test]
    fn validate_bounds_blocks_and_spare_exactly() {
        // Three erase blocks; four pass.
        let blocks = |capacity| SsdConfig {
            capacity,
            over_provision: 0.0,
            gc_free_threshold: 0.0,
            ..SsdConfig::default()
        };
        let err = blocks(3 << 18).validate().unwrap_err();
        assert!(err.contains("at least 4"), "{err}");
        // Four blocks of which GC keeps two free need two spare blocks.
        let err = blocks(4 << 18).validate().unwrap_err();
        assert!(err.contains("spare area"), "{err}");
        // One page short of the spare GC needs: 1 025 logical pages in 18
        // blocks of 64 keep 127 spare pages, two blocks (the threshold)
        // are 128.
        let short = SsdConfig {
            capacity: 1025 * 4096,
            over_provision: 0.12,
            ..SsdConfig::default()
        };
        let err = short.validate().unwrap_err();
        assert!(err.contains("spare area"), "{err}");
    }

    #[test]
    fn spare_of_exactly_the_threshold_keeps_collecting() {
        // 1 024 logical pages in 18 blocks: 128 spare pages, the two
        // blocks GC keeps free. Random overwrites always find a victim.
        let cfg = SsdConfig {
            capacity: 4 << 20,
            over_provision: 0.12,
            ..SsdConfig::default()
        };
        assert!(cfg.validate().is_ok());
        let mut ssd = Ssd::new(cfg);
        let mut x = 5;
        for _ in 0..20_000 {
            let lpn = splitmix64(&mut x) % 1024;
            ssd.submit(0, IoOp::write(lpn * 4096, 4096, Pattern::Random));
        }
        assert!(ssd.stats().erases > 100, "{} erases", ssd.stats().erases);
        ssd.ftl.check_invariants();
    }

    #[test]
    #[should_panic(expected = "gc_free_threshold = 1")]
    fn new_panics_with_the_validate_message() {
        // Before validation this device panicked with "no GC victim
        // available" after one erase block of writes.
        Ssd::new(SsdConfig {
            capacity: 16 << 20,
            gc_free_threshold: 1.0,
            ..SsdConfig::default()
        });
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
