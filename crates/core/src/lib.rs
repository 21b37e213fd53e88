//! TSUE core: the two-stage erasure-code update engine.
//!
//! This crate implements the paper's contribution proper (§3):
//!
//! * a **two-level index** — block hash map on top, offset-sorted
//!   non-overlapping ranges below, with a bitmap accelerator — that merges
//!   duplicate and adjacent update records ([`index`]);
//! * fixed-size **log units** with the EMPTY → RECYCLABLE → RECYCLING →
//!   RECYCLED lifecycle ([`mod@unit`]);
//! * a FIFO **log pool** of those units that supports concurrent append and
//!   recycle, grows from a minimum up to its quota (nothing shrinks it:
//!   allocated units stay allocated), and retains recycled units as a read
//!   cache ([`pool`]);
//! * the **three-layer log schema** — DataLog, DeltaLog, ParityLog — with
//!   the recycle protocol both executors share (take a unit, fold its
//!   contents in key order, finish it) and the per-stripe grouping of the
//!   Eq. 5 cross-block merge ([`layers`]);
//! * a real **multi-threaded engine** wiring the three layers over an
//!   in-memory stripe with a Reed-Solomon codec: front-end appends return
//!   as soon as the data log holds the update, back-end recycler threads
//!   drain the pipeline in real time ([`engine`]).
//!
//! Log payloads are generic: [`payload::Data`] carries real bytes (used by
//! the engine and byte-exact tests), while [`payload::Ghost`] carries only
//! lengths, letting the cluster simulator run the same merge logic over
//! millions of records without materialising data.
//!
//! # Example: the two-level index merging an update burst
//!
//! ```
//! use tsue::index::{MergeMode, TwoLevelIndex};
//! use tsue::payload::Ghost;
//!
//! let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Overwrite);
//! // Three updates: two duplicates and one adjacent.
//! idx.insert(7, 0, Ghost(4096));
//! idx.insert(7, 0, Ghost(4096));      // duplicate: overwritten in place
//! idx.insert(7, 4096, Ghost(4096));   // adjacent: concatenated
//! let drained = idx.remove_block(&7).unwrap();
//! assert_eq!(drained.len(), 1);       // 3 records -> 1 range
//! assert_eq!(drained[0], (0, Ghost(8192)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod fastmap;
pub mod index;
pub mod layers;
pub mod payload;
pub mod pool;
pub mod unit;

pub use index::{MergeMode, TwoLevelIndex};
pub use payload::{Data, Ghost, Payload};
pub use pool::{AppendOutcome, LogPool, PoolConfig};
pub use unit::{LogUnit, UnitState};
