//! Synthetic block-trace workloads calibrated to the statistics the paper
//! reports for its three trace families.
//!
//! The real Ali-Cloud, Ten-Cloud and MSR-Cambridge traces are large external
//! datasets; per the substitution rule, this crate generates synthetic
//! streams matching the **published statistics** that drive TSUE's results:
//!
//! | family | update ratio | ≤16 KiB | =4 KiB | locality |
//! |---|---|---|---|---|
//! | Ali-Cloud (§2.1) | 75 % of requests | 60 % | 46 % | Zipf hot set |
//! | Ten-Cloud (§2.1) | 69 % | 88 % | 69 % | very skewed: >80 % of datasets touch <5 % of volume |
//! | MSR-Cambridge (§2.1) | >90 % of writes | 90 % | ~60 % <4 KiB | per-volume presets |
//!
//! Spatio-temporal locality is the *mechanism* TSUE exploits (same-address
//! and adjacent-address merging), so the generator exposes it explicitly:
//! a Zipf popularity law over 4 KiB slots (temporal re-touch), a hot-region
//! split (spatial concentration), and a sequential-run probability
//! (adjacent-address merges).
//!
//! Every preset has unit tests asserting the generated stream reproduces the
//! table above within tolerance ([`stats`]).
//!
//! The generator decides *what* each op is, never *when* it arrives: every
//! op it yields has `at_ns == 0`. Closed-loop replay issues an op when the
//! client's previous one completes; open-loop schedules stamp arrival times
//! in the `workload` crate. Nothing here reads recorded trace files; a
//! reader belongs next to such files once the repository holds some.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod stats;
pub mod workload;
pub mod zipf;

pub use workload::{TraceFamily, WorkloadGen, WorkloadParams};
pub use zipf::{AliasZipf, Zipf};

/// Request type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// First write to an address range (goes through the encode path).
    Write,
    /// Overwrite of previously written data (goes through the update path).
    Update,
    /// Read.
    Read,
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Arrival time in nanoseconds: 0 from [`WorkloadGen`]; an open-loop
    /// schedule stamps its absolute arrival time here.
    pub at_ns: u64,
    /// Byte offset within the workload's logical volume.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u32,
    /// Request type.
    pub kind: OpKind,
}

impl TraceOp {
    /// End offset (exclusive).
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}
