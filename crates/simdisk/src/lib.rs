//! Storage device models: a NAND SSD with a page-mapped FTL and a
//! mechanical HDD with a seek model.
//!
//! This crate stands in for the paper's physical devices (one 400 GB SSD per
//! node on the Chameleon testbed; three 2 TB HDDs per node in the HDD
//! cluster). The two properties the evaluation depends on are modelled
//! explicitly:
//!
//! 1. **The random-vs-sequential gap.** On the SSD, small random operations
//!    pay a fixed per-command overhead that dwarfs the transfer time, while
//!    large sequential streams run at media bandwidth ([`ssd`]). On the HDD
//!    the gap is mechanical: non-contiguous accesses pay seek plus
//!    rotational latency ([`hdd`]).
//! 2. **Flash wear.** Every host write lands in a page-mapped FTL; small
//!    in-place overwrites invalidate pages and eventually force garbage
//!    collection, whose relocations and block erases are both charged to
//!    the device timeline and counted for the lifespan analysis
//!    (paper §5.3.4 and Table 1) ([`ssd::Ftl`]). Until GC can first run,
//!    allocation is a bump and the FTL updates only its logical map; it
//!    derives the page owners, valid counts and closed-block index in one
//!    pass when the device reaches that point. A page is valid iff the
//!    map points back at its owner, so an overwrite moves only the map,
//!    and a closed block keeps its owners as runs of consecutive logical
//!    pages, written once when it retires. The map holds 64 KiB pages
//!    only where the device has written, so building one costs almost no
//!    memory. [`SsdConfig::validate`] rejects geometries the FTL cannot
//!    run.
//!
//! All devices expose the same [`IoOp`]/[`submit`](Disk::submit) interface
//! returning completion times against a [`simdes::Resource`] queue, plus
//! [`DeviceStats`] counting reads, writes, *overwrites* (the write-penalty
//! metric of Table 1) and erases.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hdd;
pub mod lse;
pub mod ssd;
pub mod stats;

pub use hdd::{Hdd, HddConfig};
pub use lse::{LseModel, LseSite};
pub use ssd::{Ssd, SsdConfig};
pub use stats::{erase_ratio, DeviceStats};

use simdes::SimTime;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Data flows from the device.
    Read,
    /// Data flows to the device.
    Write,
}

/// Access-pattern hint supplied by the storage layer.
///
/// The OSD knows the semantics of each access (log appends are sequential,
/// in-place block updates are random), so the hint is authoritative for the
/// SSD's command-overhead model; the HDD additionally tracks head position
/// and only charges a seek when the access is actually discontiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Part of a sequential stream (e.g. log append, recovery scan).
    Sequential,
    /// Independent small access (e.g. in-place block update).
    Random,
}

/// One device command.
#[derive(Debug, Clone, Copy)]
pub struct IoOp {
    /// Read or write.
    pub kind: IoKind,
    /// Byte offset on the device.
    pub offset: u64,
    /// Length in bytes (must be non-zero).
    pub len: u64,
    /// Access-pattern hint.
    pub pattern: Pattern,
}

impl IoOp {
    /// Convenience constructor for a read.
    pub fn read(offset: u64, len: u64, pattern: Pattern) -> IoOp {
        IoOp {
            kind: IoKind::Read,
            offset,
            len,
            pattern,
        }
    }

    /// Convenience constructor for a write.
    pub fn write(offset: u64, len: u64, pattern: Pattern) -> IoOp {
        IoOp {
            kind: IoKind::Write,
            offset,
            len,
            pattern,
        }
    }
}

/// A storage device: either flavour behind one interface.
#[derive(Debug, Clone)]
pub enum Disk {
    /// NAND SSD with FTL.
    Ssd(Ssd),
    /// Mechanical HDD.
    Hdd(Hdd),
}

impl Disk {
    /// Submits an I/O at simulation time `now`; returns its completion time.
    pub fn submit(&mut self, now: SimTime, op: IoOp) -> SimTime {
        match self {
            Disk::Ssd(d) => d.submit(now, op),
            Disk::Hdd(d) => d.submit(now, op),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        match self {
            Disk::Ssd(d) => d.stats(),
            Disk::Hdd(d) => d.stats(),
        }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        match self {
            Disk::Ssd(d) => d.capacity(),
            Disk::Hdd(d) => d.capacity(),
        }
    }

    /// Bytes physically written to the media so far — the wear high-water
    /// mark ([`DeviceStats::wear_bytes`]) capacity/wear-aware placement
    /// and rebalance policies consult.
    pub fn wear_bytes(&self) -> u64 {
        self.stats().wear_bytes
    }

    /// Total busy time booked on the device.
    pub fn busy_time(&self) -> u64 {
        match self {
            Disk::Ssd(d) => d.busy_time(),
            Disk::Hdd(d) => d.busy_time(),
        }
    }

    /// Explicitly erases a fixed region (SSD: counts erase cycles and books
    /// erase time; HDD: free — magnetic media needs no erase).
    pub fn erase_region(&mut self, now: SimTime, offset: u64, len: u64) -> SimTime {
        match self {
            Disk::Ssd(d) => d.erase_region(now, offset, len),
            Disk::Hdd(_) => now,
        }
    }

    /// Installs (or replaces) the latent-sector-error oracle ([`lse`]).
    pub fn install_lse(&mut self, model: LseModel) {
        match self {
            Disk::Ssd(d) => d.install_lse(model),
            Disk::Hdd(d) => d.install_lse(model),
        }
    }

    /// The latent-sector-error oracle, if installed.
    pub fn lse(&self) -> Option<&LseModel> {
        match self {
            Disk::Ssd(d) => d.lse(),
            Disk::Hdd(d) => d.lse(),
        }
    }

    /// Scrubs `[offset, offset + len)` against the LSE oracle at `now`;
    /// returns the number of newly detected error sites (0 when no oracle
    /// is installed).
    pub fn scrub_lse(&mut self, now: SimTime, offset: u64, len: u64) -> usize {
        match self {
            Disk::Ssd(d) => d.lse_mut(),
            Disk::Hdd(d) => d.lse_mut(),
        }
        .map_or(0, |m| m.scrub(now, offset, len))
    }

    /// Marks detected LSE sites in `[offset, offset + len)` repaired after
    /// the covering block was rebuilt; returns how many were cleared.
    pub fn clear_lse(&mut self, offset: u64, len: u64) -> usize {
        match self {
            Disk::Ssd(d) => d.lse_mut(),
            Disk::Hdd(d) => d.lse_mut(),
        }
        .map_or(0, |m| m.clear(offset, len))
    }

    /// Unrepaired error sites with onset by `now` — the current exposure
    /// window (0 when no oracle is installed).
    pub fn lse_latent(&self, now: SimTime) -> usize {
        self.lse().map_or(0, |m| m.latent(now))
    }
}
