//! Per-device I/O accounting: the raw material for the paper's Table 1.

use simdes::stats::OpCounter;

/// Cumulative device statistics.
///
/// *Overwrites* are writes that land on previously written addresses — the
/// "write penalty" column of Table 1: they are what invalidates flash pages
/// and burns erase cycles, so the paper reports them separately from total
/// read/write traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// All read commands.
    pub reads: OpCounter,
    /// All write commands (first writes and overwrites alike).
    pub writes: OpCounter,
    /// Writes to previously written bytes (the write penalty of Table 1).
    pub overwrites: OpCounter,
    /// Reads issued with the random-pattern hint.
    pub random_reads: OpCounter,
    /// Writes issued with the random-pattern hint.
    pub random_writes: OpCounter,
    /// NAND block erase operations (SSD only; the lifespan currency):
    /// FTL garbage collection plus explicit region erases.
    pub erases: u64,
    /// The part of `erases` issued by explicit fixed-region erases
    /// ([`crate::Ssd::erase_region`]); the rest is FTL garbage collection.
    pub region_erases: u64,
    /// Positions GC victim selection examined (bucket heads and bitset
    /// words of the FTL's closed-block index): the host cost of choosing
    /// victims, exact on any machine.
    pub gc_blocks_scanned: u64,
    /// Pages relocated by garbage collection (SSD write amplification).
    pub gc_relocated_pages: u64,
    /// Pages physically programmed, including GC relocations.
    pub nand_pages_programmed: u64,
    /// Bytes physically written to the media so far — the per-device wear
    /// high-water mark. On an SSD this counts programmed NAND bytes (host
    /// pages *and* GC relocations); on an HDD it is the host write volume.
    /// Unlike every other counter, [`DeviceStats::merge`] keeps the **max**
    /// across devices: a merged aggregate answers "how worn is the most
    /// worn disk of the fleet", which is what wear-aware placement and
    /// lifespan projections need.
    pub wear_bytes: u64,
}

impl DeviceStats {
    /// Total host read+write operations.
    pub fn rw_ops(&self) -> u64 {
        self.reads.ops + self.writes.ops
    }

    /// Total host read+write bytes.
    pub fn rw_bytes(&self) -> u64 {
        self.reads.bytes + self.writes.bytes
    }

    /// Write amplification factor: NAND pages programmed per host page
    /// written (1.0 means no GC overhead; 0 writes yields 1.0).
    pub fn write_amplification(&self, page: u64) -> f64 {
        let host_pages = self.writes.bytes.div_ceil(page).max(1);
        self.nand_pages_programmed as f64 / host_pages as f64
    }

    /// Erases performed by FTL garbage collection (`erases` minus the
    /// explicit region erases).
    pub fn gc_erases(&self) -> u64 {
        self.erases - self.region_erases
    }

    /// Merges another device's statistics into this one (cluster totals).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.reads.merge(other.reads);
        self.writes.merge(other.writes);
        self.overwrites.merge(other.overwrites);
        self.random_reads.merge(other.random_reads);
        self.random_writes.merge(other.random_writes);
        self.erases += other.erases;
        self.region_erases += other.region_erases;
        self.gc_blocks_scanned += other.gc_blocks_scanned;
        self.gc_relocated_pages += other.gc_relocated_pages;
        self.nand_pages_programmed += other.nand_pages_programmed;
        // Wear is a per-device high-water mark, not a fleet total.
        self.wear_bytes = self.wear_bytes.max(other.wear_bytes);
    }
}

/// Lifespan extension over a baseline, as the paper reports it: how many
/// times more erase cycles the baseline burned (`baseline_erases /
/// own_erases`). `None` when either count is zero — a device that never
/// cycled says nothing about lifespan.
pub fn erase_ratio(baseline_erases: u64, own_erases: u64) -> Option<f64> {
    (baseline_erases > 0 && own_erases > 0).then(|| baseline_erases as f64 / own_erases as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_everything() {
        let mut a = DeviceStats::default();
        a.reads.record(100);
        a.writes.record(200);
        a.overwrites.record(50);
        a.erases = 3;
        a.region_erases = 1;
        a.gc_blocks_scanned = 40;
        a.nand_pages_programmed = 10;
        a.wear_bytes = 4096;

        let mut b = DeviceStats::default();
        b.reads.record(1);
        b.erases = 2;
        b.region_erases = 2;
        b.gc_blocks_scanned = 2;
        b.gc_relocated_pages = 7;
        b.wear_bytes = 9000;

        a.merge(&b);
        assert_eq!(a.reads.ops, 2);
        assert_eq!(a.reads.bytes, 101);
        assert_eq!(a.erases, 5);
        assert_eq!(a.region_erases, 3);
        assert_eq!(a.gc_erases(), 2);
        assert_eq!(a.gc_blocks_scanned, 42);
        assert_eq!(a.gc_relocated_pages, 7);
        assert_eq!(a.rw_ops(), 3);
        assert_eq!(a.rw_bytes(), 301);
        // Wear takes the most-worn device, not the sum.
        assert_eq!(a.wear_bytes, 9000);
    }

    #[test]
    fn erase_ratio_refuses_a_zero() {
        assert_eq!(erase_ratio(30, 10), Some(3.0));
        assert_eq!(erase_ratio(5, 10), Some(0.5));
        assert_eq!(erase_ratio(0, 10), None);
        assert_eq!(erase_ratio(30, 0), None);
        assert_eq!(erase_ratio(0, 0), None);
    }

    #[test]
    fn write_amplification_baseline_is_one() {
        let mut s = DeviceStats::default();
        s.writes.record(4096 * 10);
        s.nand_pages_programmed = 10;
        assert!((s.write_amplification(4096) - 1.0).abs() < 1e-12);
        s.gc_relocated_pages = 5;
        s.nand_pages_programmed = 15;
        assert!((s.write_amplification(4096) - 1.5).abs() < 1e-12);
    }
}
