//! Fixed-size log units and their recycle lifecycle (§3.2.1).

use std::hash::Hash;

use crate::index::{MergeMode, TwoLevelIndex};
use crate::payload::Payload;

/// Lifecycle state of a log unit.
///
/// ```text
/// EMPTY --fill--> RECYCLABLE --attach--> RECYCLING --done--> RECYCLED --reuse--> EMPTY
/// ```
///
/// A RECYCLED data unit ([`MergeMode::Overwrite`]) keeps its index alive as a
/// read cache until it is reused as the active unit (§3.3.3). A delta unit
/// ([`MergeMode::Xor`]) hands its index to the recycler when it is taken, so
/// from RECYCLING on it holds nothing: a delta cannot answer a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitState {
    /// Accepting appends (at most one unit per pool is active).
    Empty,
    /// Full; waiting for a recycle thread.
    Recyclable,
    /// Being recycled right now.
    Recycling,
    /// Recycled; a data unit's contents stay as read cache until reuse, a
    /// delta unit is already empty.
    Recycled,
}

/// A fixed-size log unit: an append region plus its own two-level index.
///
/// Units own independent indexes precisely so that multiple units can be
/// recycled concurrently without sharing locks (§3.2.2: "reduces lock
/// protection domains by assigning independent index for each log unit").
#[derive(Debug, Clone)]
pub struct LogUnit<K, P> {
    id: u64,
    state: UnitState,
    capacity: u64,
    used: u64,
    records: u64,
    index: TwoLevelIndex<K, P>,
    /// Timestamp of the first append since (re)activation; used for
    /// residency accounting (paper Table 2).
    pub first_append_at: Option<u64>,
}

impl<K: Hash + Eq + Ord + Clone, P: Payload> LogUnit<K, P> {
    /// New empty unit.
    pub fn new(id: u64, capacity: u64, mode: MergeMode) -> LogUnit<K, P> {
        assert!(capacity > 0, "unit capacity must be positive");
        LogUnit {
            id,
            state: UnitState::Empty,
            capacity,
            used: 0,
            records: 0,
            index: TwoLevelIndex::new(mode),
            first_append_at: None,
        }
    }

    /// Unit identifier (unique within its pool).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> UnitState {
        self.state
    }

    /// Appended bytes (pre-merge: the raw log volume).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Appended record count (pre-merge).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Whether a record of `len` bytes fits.
    pub fn fits(&self, len: u32) -> bool {
        self.used + len as u64 <= self.capacity
    }

    /// Appends one record.
    ///
    /// # Panics
    /// Panics if the unit is not EMPTY (active) or the record does not fit —
    /// the pool enforces both before calling.
    pub fn append(&mut self, key: K, off: u32, payload: P, now: u64) {
        assert_eq!(self.state, UnitState::Empty, "append to non-active unit");
        let len = payload.len();
        assert!(self.fits(len), "append overflows unit");
        if self.first_append_at.is_none() {
            self.first_append_at = Some(now);
        }
        self.used += len as u64;
        self.records += 1;
        self.index.insert(key, off, payload);
    }

    /// Seals the unit: EMPTY → RECYCLABLE.
    ///
    /// # Panics
    /// Panics if not EMPTY.
    pub fn seal(&mut self) {
        assert_eq!(self.state, UnitState::Empty, "seal of non-active unit");
        self.state = UnitState::Recyclable;
    }

    /// Attaches the unit to a recycler: RECYCLABLE → RECYCLING. Returns the
    /// merged contents in ascending key order.
    ///
    /// A data unit ([`MergeMode::Overwrite`]) hands out shared views and
    /// keeps its index intact for read-cache lookups. A delta unit
    /// ([`MergeMode::Xor`]) moves its index out: the recycler owns the
    /// payloads and frees them when its fold ends, and the unit answers no
    /// lookup from here on.
    ///
    /// # Panics
    /// Panics if not RECYCLABLE.
    pub fn start_recycle(&mut self) -> Vec<(K, Vec<(u32, P)>)> {
        assert_eq!(self.state, UnitState::Recyclable, "unit not recyclable");
        self.state = UnitState::Recycling;
        let mut contents = match self.index.mode() {
            MergeMode::Xor => self.index.drain_all(),
            MergeMode::Overwrite => self
                .index
                .block_keys()
                .map(|k| (k.clone(), self.index.lookup(k, 0, u32::MAX)))
                .collect(),
        };
        // Sorted key order keeps recycle processing deterministic across
        // processes (the backing index iterates in hash order), and both
        // executors recycle a unit's keys in the order returned here.
        contents.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
        contents
    }

    /// Completes recycling: RECYCLING → RECYCLED. A data unit's index stays
    /// queryable as a read cache.
    ///
    /// # Panics
    /// Panics if not RECYCLING.
    pub fn finish_recycle(&mut self) {
        assert_eq!(self.state, UnitState::Recycling, "unit not recycling");
        self.state = UnitState::Recycled;
    }

    /// Reuses a RECYCLED unit as the new active unit: clears contents,
    /// RECYCLED → EMPTY.
    ///
    /// # Panics
    /// Panics if not RECYCLED.
    pub fn reuse(&mut self) {
        assert_eq!(self.state, UnitState::Recycled, "unit not recycled");
        self.index.clear();
        self.used = 0;
        self.records = 0;
        self.first_append_at = None;
        self.state = UnitState::Empty;
    }

    /// Payload bytes the unit's index references.
    pub fn held_bytes(&self) -> u64 {
        self.index.held_bytes()
    }

    /// Read-cache lookup (valid in any state holding data).
    pub fn lookup(&self, key: &K, off: u32, len: u32) -> Vec<(u32, P)> {
        self.index.lookup(key, off, len)
    }

    /// End of the live range under `key` holding byte `off`, if one does
    /// (valid in any state holding data).
    pub(crate) fn range_end_at(&self, key: &K, off: u32) -> Option<u32> {
        self.index.range_end_at(key, off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{Data, Ghost};

    fn unit() -> LogUnit<u64, Ghost> {
        LogUnit::new(1, 1000, MergeMode::Overwrite)
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut u = unit();
        assert_eq!(u.state(), UnitState::Empty);
        u.append(7, 0, Ghost(100), 5);
        u.append(7, 100, Ghost(100), 6);
        assert_eq!(u.used(), 200);
        assert_eq!(u.records(), 2);
        assert_eq!(u.first_append_at, Some(5));

        u.seal();
        assert_eq!(u.state(), UnitState::Recyclable);

        let contents = u.start_recycle();
        assert_eq!(u.state(), UnitState::Recycling);
        assert_eq!(contents.len(), 1);
        assert_eq!(contents[0].1, vec![(0, Ghost(200))]); // merged

        u.finish_recycle();
        assert_eq!(u.state(), UnitState::Recycled);
        assert_eq!(u.held_bytes(), 200, "a data unit keeps its contents");
        // Read cache still works.
        assert_eq!(u.lookup(&7, 50, 10), vec![(50, Ghost(10))]);

        u.reuse();
        assert_eq!(u.state(), UnitState::Empty);
        assert_eq!(u.used(), 0);
        assert!(u.lookup(&7, 50, 10).is_empty());
    }

    #[test]
    fn taken_delta_unit_hands_over_owned_contents() {
        let mut u: LogUnit<u64, Data> = LogUnit::new(1, 1000, MergeMode::Xor);
        u.append(9, 0, Data::copy_from(&[1; 8]), 0);
        u.append(3, 16, Data::copy_from(&[2; 8]), 0);
        u.append(3, 20, Data::copy_from(&[4; 8]), 0); // XOR-merged, then extended
        u.seal();
        let contents = u.start_recycle();
        assert_eq!(u.held_bytes(), 0);
        assert!(u.lookup(&3, 0, 100).is_empty() && u.lookup(&9, 0, 100).is_empty());
        let keys: Vec<u64> = contents.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![3, 9]);
        assert_eq!(
            contents[0].1[0].1.as_slice(),
            &[2, 2, 2, 2, 6, 6, 6, 6, 4, 4, 4, 4]
        );
        for (_, ranges) in contents {
            for (_, d) in ranges {
                // The unit kept no view, so the buffer comes back uncopied.
                let storage = d.as_slice().as_ptr();
                let owned = Vec::from(d.0);
                assert_eq!(owned.as_ptr(), storage);
            }
        }
        u.finish_recycle();
        u.reuse();
        assert_eq!(u.state(), UnitState::Empty);
    }

    #[test]
    fn fits_respects_capacity() {
        let mut u = unit();
        assert!(u.fits(1000));
        assert!(!u.fits(1001));
        u.append(1, 0, Ghost(900), 0);
        assert!(u.fits(100));
        assert!(!u.fits(101));
    }

    #[test]
    #[should_panic(expected = "append overflows unit")]
    fn overflow_append_panics() {
        let mut u = unit();
        u.append(1, 0, Ghost(2000), 0);
    }

    #[test]
    #[should_panic(expected = "append to non-active unit")]
    fn append_after_seal_panics() {
        let mut u = unit();
        u.append(1, 0, Ghost(10), 0);
        u.seal();
        u.append(1, 10, Ghost(10), 2);
    }

    #[test]
    #[should_panic(expected = "unit not recyclable")]
    fn recycle_of_active_unit_panics() {
        let mut u = unit();
        u.start_recycle();
    }

    #[test]
    #[should_panic(expected = "unit not recycled")]
    fn reuse_of_unrecycled_panics() {
        let mut u = unit();
        u.append(1, 0, Ghost(10), 0);
        u.seal();
        u.reuse();
    }
}
