//! The FIFO log pool (§3.2): a queue of fixed-size units supporting
//! concurrent append and recycle, bounded memory, growth up to a quota, and
//! read-cache retention.
//!
//! Only a data pool ([`MergeMode::Overwrite`]) retains what it recycled: its
//! RECYCLED units answer reads until reused. A delta pool
//! ([`MergeMode::Xor`]) moves each unit's contents to the recycler when it
//! is taken (see [`LogUnit::start_recycle`]), so it holds only the records
//! no recycler has taken yet.

use std::collections::VecDeque;
use std::hash::Hash;

use crate::index::MergeMode;
use crate::payload::Payload;
use crate::unit::{LogUnit, UnitState};

/// Pool sizing and behaviour.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Bytes per log unit (the paper uses 16 MiB).
    pub unit_bytes: u64,
    /// Units allocated up front; the pool grows from here to the quota.
    pub min_units: usize,
    /// Hard quota on units (the paper's memory-limit knob; Fig. 6b sweeps
    /// this from 2 to 20).
    pub max_units: usize,
    /// Merge semantics of the layer this pool serves.
    pub mode: MergeMode,
}

impl PoolConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.unit_bytes == 0 {
            return Err("unit_bytes must be positive".into());
        }
        if self.min_units == 0 || self.max_units < self.min_units {
            return Err(format!(
                "bad unit bounds: min {} max {}",
                self.min_units, self.max_units
            ));
        }
        if self.max_units < 2 {
            return Err("need at least 2 units (one active, one recycling)".into());
        }
        Ok(())
    }
}

/// A unit handed to a recycler: identity, pre-merge footprint (for the
/// locality-ablation accounting), its first-append time (for residency),
/// and the merged contents.
#[derive(Debug, Clone)]
pub struct TakenUnit<K, P> {
    /// Unit id within its pool.
    pub id: u64,
    /// Raw records appended (pre-merge).
    pub records: u64,
    /// Raw bytes appended (pre-merge).
    pub bytes: u64,
    /// Time of the first append.
    pub first_append_at: Option<u64>,
    /// Merged contents: per key in ascending key order, offset-sorted
    /// ranges.
    pub contents: Vec<(K, Vec<(u32, P)>)>,
}

/// Result of an append attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// Record accepted into the active unit.
    Appended,
    /// Record accepted; the previously active unit sealed (its id returned)
    /// and is now RECYCLABLE.
    AppendedAndSealed(u64),
    /// Pool is at quota with nothing reusable: the caller must wait for a
    /// recycle to finish and retry (back-pressure; this is what throttles
    /// TSUE when `max_units` is too small — paper Fig. 6a/6b).
    Stalled,
}

/// A FIFO pool of log units for one (device, layer, pool-index) triple.
#[derive(Debug, Clone)]
pub struct LogPool<K, P> {
    cfg: PoolConfig,
    units: Vec<LogUnit<K, P>>,
    /// FIFO of unit slots in age order (oldest first); the active unit is
    /// the last element.
    order: VecDeque<usize>,
    /// Slot of the unit accepting appends; `None` after a forced seal
    /// exhausted the quota (the next append re-claims or stalls).
    active: Option<usize>,
    next_id: u64,
}

impl<K: Hash + Eq + Ord + Clone, P: Payload> LogPool<K, P> {
    /// Builds a pool with `min_units` pre-allocated.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub fn new(cfg: PoolConfig) -> LogPool<K, P> {
        cfg.validate().expect("invalid pool config");
        let mut pool = LogPool {
            units: Vec::with_capacity(cfg.max_units),
            order: VecDeque::with_capacity(cfg.max_units),
            active: None,
            next_id: 0,
            cfg,
        };
        for _ in 0..pool.cfg.min_units {
            pool.alloc_unit();
        }
        pool.active = Some(*pool.order.front().expect("min_units >= 1"));
        pool
    }

    fn alloc_unit(&mut self) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        let slot = self.units.len();
        self.units
            .push(LogUnit::new(id, self.cfg.unit_bytes, self.cfg.mode));
        self.order.push_back(slot);
        slot
    }

    /// Memory footprint: allocated units times unit size (the quota-based
    /// accounting of §5.3.2).
    pub fn memory_bytes(&self) -> u64 {
        self.units.len() as u64 * self.cfg.unit_bytes
    }

    /// Units currently in the given state.
    pub fn count_state(&self, state: UnitState) -> usize {
        self.units.iter().filter(|u| u.state() == state).count()
    }

    /// Bytes sitting in the active (unsealed) unit.
    pub fn active_bytes(&self) -> u64 {
        self.active.map_or(0, |a| self.units[a].used())
    }

    /// Payload bytes the units' indexes reference: merged records not yet
    /// taken, plus a data pool's read cache.
    pub fn held_bytes(&self) -> u64 {
        self.units.iter().map(LogUnit::held_bytes).sum()
    }

    fn find_reusable(&self) -> Option<usize> {
        // Idle pre-allocated EMPTY units first (fresh pool), then the
        // oldest RECYCLED unit (FIFO reuse keeps the cache fresh).
        self.order
            .iter()
            .copied()
            .find(|&i| Some(i) != self.active && self.units[i].state() == UnitState::Empty)
            .or_else(|| {
                self.order
                    .iter()
                    .copied()
                    .find(|&i| self.units[i].state() == UnitState::Recycled)
            })
    }

    /// Appends a record, rotating/allocating units as needed.
    ///
    /// # Panics
    /// Panics if a single record exceeds the unit capacity.
    pub fn append(&mut self, key: K, off: u32, payload: P, now: u64) -> AppendOutcome {
        let len = payload.len();
        assert!(
            (len as u64) <= self.cfg.unit_bytes,
            "record larger than a log unit"
        );
        if let Some(a) = self.active {
            if self.units[a].fits(len) {
                self.units[a].append(key, off, payload, now);
                return AppendOutcome::Appended;
            }
        }
        // No active unit, or it is full: rotate.
        match self.claim_replacement() {
            Some(slot) => self.rotate_into(slot, key, off, payload, now),
            None => AppendOutcome::Stalled,
        }
    }

    /// Like [`Self::append`], but never stalls: when the quota is exhausted
    /// it allocates an emergency unit beyond `max_units`. Intended for
    /// *internal* pipeline appends whose caller cannot park (client-facing
    /// appends should use [`Self::append`] and honour back-pressure). The
    /// emergency unit stays allocated: pools never shrink.
    pub fn append_overflow(&mut self, key: K, off: u32, payload: P, now: u64) -> AppendOutcome {
        match self.append(key.clone(), off, payload.clone(), now) {
            AppendOutcome::Stalled => {
                let slot = self.alloc_unit();
                self.rotate_into(slot, key, off, payload, now)
            }
            other => other,
        }
    }

    /// Seals the active unit (if any), makes `slot` active, and appends the
    /// record there.
    fn rotate_into(
        &mut self,
        slot: usize,
        key: K,
        off: u32,
        payload: P,
        now: u64,
    ) -> AppendOutcome {
        let sealed = self.active.map(|a| {
            self.units[a].seal();
            self.units[a].id()
        });
        self.active = Some(slot);
        self.units[slot].append(key, off, payload, now);
        match sealed {
            Some(id) => AppendOutcome::AppendedAndSealed(id),
            None => AppendOutcome::Appended,
        }
    }

    /// Claims a replacement active unit: an idle EMPTY spare, a RECYCLED
    /// unit (cleared for reuse), or a fresh allocation under quota. The
    /// claimed unit moves to the FIFO tail.
    fn claim_replacement(&mut self) -> Option<usize> {
        if let Some(slot) = self.find_reusable() {
            let pos = self
                .order
                .iter()
                .position(|&i| i == slot)
                .expect("slot in order");
            self.order.remove(pos);
            self.order.push_back(slot);
            if self.units[slot].state() == UnitState::Recycled {
                self.units[slot].reuse();
            }
            Some(slot)
        } else if self.units.len() < self.cfg.max_units {
            Some(self.alloc_unit())
        } else {
            None
        }
    }

    /// Force-seals the active unit (e.g. timed flush or end-of-run drain)
    /// if it holds data. Returns the sealed unit's id.
    ///
    /// Unlike the rotation inside [`Self::append`], sealing here does not
    /// require a replacement: the pool may be left without an active unit,
    /// and the next append claims or allocates one (or stalls at quota).
    pub fn seal_active(&mut self) -> Option<u64> {
        let a = self.active?;
        if self.units[a].used() == 0 {
            return None;
        }
        let id = self.units[a].id();
        self.units[a].seal();
        self.active = self.claim_replacement();
        Some(id)
    }

    /// Takes the oldest RECYCLABLE unit for recycling. The unit transitions
    /// to RECYCLING.
    pub fn take_recyclable(&mut self) -> Option<TakenUnit<K, P>> {
        let slot = self
            .order
            .iter()
            .copied()
            .find(|&i| self.units[i].state() == UnitState::Recyclable)?;
        let contents = self.units[slot].start_recycle();
        let u = &self.units[slot];
        Some(TakenUnit {
            id: u.id(),
            records: u.records(),
            bytes: u.used(),
            first_append_at: u.first_append_at,
            contents,
        })
    }

    /// Marks a RECYCLING unit as done (RECYCLED).
    ///
    /// # Panics
    /// Panics if no RECYCLING unit has this id.
    pub fn finish_recycle(&mut self, unit_id: u64) {
        self.units
            .iter_mut()
            .find(|u| u.id() == unit_id && u.state() == UnitState::Recycling)
            .expect("no such recycling unit")
            .finish_recycle();
    }

    /// Read-cache lookup across all units in **overlay order**: pieces from
    /// older units come first, so a reader reconstructs the newest view by
    /// applying the returned pieces in order (later pieces overwrite earlier
    /// ones where they overlap). In a delta pool only units no recycler has
    /// taken answer.
    pub fn lookup(&self, key: &K, off: u32, len: u32) -> Vec<(u32, P)> {
        let mut out: Vec<(u32, P)> = Vec::new();
        for &slot in self.order.iter() {
            out.extend(self.units[slot].lookup(key, off, len));
        }
        out
    }

    /// Whether the read cache holds every byte of `[off, off+len)`: the
    /// union of all units' pieces covers it. Pieces of different units may
    /// overlap, and an overlapped byte counts once. Like [`Self::lookup`],
    /// a delta pool answers only from units not yet taken.
    pub fn covers(&self, key: &K, off: u32, len: u32) -> bool {
        let end = off + len;
        let mut cursor = off;
        while cursor < end {
            // Jump to the farthest end among the ranges holding `cursor`.
            let reach = self
                .units
                .iter()
                .filter_map(|u| u.range_end_at(key, cursor));
            let Some(next) = reach.max() else {
                return false;
            };
            cursor = next;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Ghost;

    fn cfg(max_units: usize) -> PoolConfig {
        PoolConfig {
            unit_bytes: 1000,
            min_units: 2,
            max_units,
            mode: MergeMode::Overwrite,
        }
    }

    fn pool(max_units: usize) -> LogPool<u64, Ghost> {
        LogPool::new(cfg(max_units))
    }

    #[test]
    fn appends_fill_and_seal_units() {
        let mut p = pool(4);
        for i in 0..9 {
            let out = p.append(1, i * 100, Ghost(100), i as u64);
            assert_eq!(out, AppendOutcome::Appended, "i = {i}");
        }
        // The 10th record fits exactly; the 11th seals.
        assert_eq!(p.append(1, 900, Ghost(100), 9), AppendOutcome::Appended);
        match p.append(1, 1000, Ghost(100), 10) {
            AppendOutcome::AppendedAndSealed(id) => assert_eq!(id, 0),
            other => panic!("expected seal, got {other:?}"),
        }
        assert_eq!(p.count_state(UnitState::Recyclable), 1);
        assert_eq!(p.take_recyclable().unwrap().records, 10);
        assert_eq!(p.active_bytes(), 100);
    }

    #[test]
    fn quota_exhaustion_stalls() {
        let mut p = pool(2);
        // Fill both units without recycling anything.
        for i in 0..20 {
            let _ = p.append(1, i * 100, Ghost(100), 0);
        }
        assert_eq!(p.append(1, 5000, Ghost(100), 0), AppendOutcome::Stalled);
        assert_eq!(p.append(1, 5000, Ghost(1), 0), AppendOutcome::Stalled);
        assert_eq!(p.memory_bytes(), 2000, "a stall allocates nothing");
    }

    #[test]
    fn recycle_unblocks_stalled_pool() {
        let mut p = pool(2);
        for i in 0..20 {
            let _ = p.append(1, i * 100, Ghost(100), 0);
        }
        assert_eq!(p.append(1, 9000, Ghost(100), 0), AppendOutcome::Stalled);

        let taken = p.take_recyclable().expect("a sealed unit exists");
        assert!(!taken.contents.is_empty());
        let id = taken.id;
        p.finish_recycle(id);
        assert_eq!(p.count_state(UnitState::Recycled), 1);
        assert!(matches!(
            p.append(1, 9000, Ghost(100), 1),
            AppendOutcome::AppendedAndSealed(_)
        ));
    }

    #[test]
    fn pool_grows_to_quota_then_reuses() {
        let mut p = pool(3);
        assert_eq!(p.memory_bytes(), 2000);
        for i in 0..25 {
            let out = p.append(1, i * 100, Ghost(100), 0);
            if out == AppendOutcome::Stalled {
                let id = p.take_recyclable().unwrap().id;
                p.finish_recycle(id);
                let retry = p.append(1, i * 100, Ghost(100), 0);
                assert_ne!(retry, AppendOutcome::Stalled);
            }
        }
        assert_eq!(p.memory_bytes(), 3000, "grew to quota and stopped");
    }

    #[test]
    fn take_recyclable_is_fifo_oldest_first() {
        let mut p = pool(4);
        for i in 0..35 {
            let _ = p.append(1, i * 100, Ghost(100), 0);
        }
        // Units 0, 1, 2 sealed by now (active is 3).
        let id1 = p.take_recyclable().unwrap().id;
        let id2 = p.take_recyclable().unwrap().id;
        assert!(id1 < id2, "oldest unit recycles first");
    }

    #[test]
    fn lookup_returns_overlay_order_oldest_first() {
        let mut p = pool(4);
        // Fill unit 0 with version A of range [0, 100).
        for i in 0..10 {
            let _ = p.append(7, i * 100, Ghost(100), 0);
        }
        // This rolls to unit 1 and writes a fresh record for [0, 100).
        let _ = p.append(7, 0, Ghost(100), 1);
        let hits = p.lookup(&7, 0, 100);
        // Two pieces: unit 0's (older) first, unit 1's (newer) last, so an
        // overlay reader ends with the newest bytes.
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0], (0, Ghost(100)));
        assert_eq!(hits[1], (0, Ghost(100)));
        assert!(p.lookup(&99, 0, 10).is_empty());
    }

    #[test]
    fn covers_counts_bytes_held_by_two_units_once() {
        let mut p = pool(4);
        // Unit 0 holds [0, 100) of key 7 (key 8 fills it); unit 1 holds
        // [50, 150). The pieces of [0, 200) add up to 200 bytes, but only
        // [0, 150) is held.
        let _ = p.append(7, 0, Ghost(100), 0);
        let _ = p.append(8, 0, Ghost(900), 0);
        let _ = p.append(7, 50, Ghost(100), 1);
        assert_eq!(p.lookup(&7, 0, 200).len(), 2);
        assert!(p.covers(&7, 0, 150));
        assert!(p.covers(&7, 25, 100));
        assert!(!p.covers(&7, 0, 200), "[150, 200) is in no unit");
        assert!(!p.covers(&9, 0, 1));
        assert!(p.covers(&9, 0, 0));
    }

    #[test]
    fn recycled_units_serve_reads_until_reused() {
        let mut p = pool(2);
        for i in 0..20 {
            let _ = p.append(3, i * 100, Ghost(100), 0);
        }
        let id = p.take_recyclable().unwrap().id;
        p.finish_recycle(id);
        // The recycled unit still answers reads for its old contents.
        assert!(!p.lookup(&3, 0, 100).is_empty());
        // Reuse it via new appends; its old contents vanish.
        for i in 0..20 {
            let _ = p.append(4, i * 100, Ghost(100), 1);
            if let Some(taken) = p.take_recyclable() {
                p.finish_recycle(taken.id);
            }
        }
        let hits = p.lookup(&3, 0, 100);
        assert!(
            hits.is_empty(),
            "old key evicted after unit reuse: {hits:?}"
        );
    }

    #[test]
    fn seal_active_flushes_partial_unit() {
        let mut p = pool(4);
        assert_eq!(p.seal_active(), None, "empty active unit: nothing to seal");
        let _ = p.append(1, 0, Ghost(50), 0);
        let id = p.seal_active().expect("sealed");
        assert_eq!(id, 0);
        assert_eq!(p.count_state(UnitState::Recyclable), 1);
        let taken = p.take_recyclable().unwrap();
        assert_eq!(taken.id, id);
        assert_eq!(taken.contents[0].1, vec![(0, Ghost(50))]);
        assert_eq!(taken.records, 1);
        assert_eq!(taken.bytes, 50);
    }

    #[test]
    fn residency_times_flow_through() {
        let mut p = pool(2);
        for i in 0..11 {
            let _ = p.append(1, i * 100, Ghost(100), 100 + i as u64);
        }
        let taken = p.take_recyclable().unwrap();
        assert_eq!(taken.first_append_at, Some(100));
        p.finish_recycle(taken.id);
        // The next unit's clock starts at its own first append: the record
        // that sealed the first unit.
        for i in 0..10 {
            let _ = p.append(1, i * 100, Ghost(100), 200 + i as u64);
        }
        assert_eq!(p.take_recyclable().unwrap().first_append_at, Some(110));
    }

    #[test]
    #[should_panic(expected = "record larger than a log unit")]
    fn oversized_record_panics() {
        let mut p = pool(2);
        let _ = p.append(1, 0, Ghost(2000), 0);
    }

    #[test]
    fn config_validation() {
        assert!(cfg(4).validate().is_ok());
        assert!(PoolConfig {
            unit_bytes: 0,
            ..cfg(4)
        }
        .validate()
        .is_err());
        assert!(PoolConfig {
            min_units: 3,
            max_units: 2,
            ..cfg(4)
        }
        .validate()
        .is_err());
        assert!(PoolConfig {
            min_units: 1,
            max_units: 1,
            ..cfg(4)
        }
        .validate()
        .is_err());
    }
}
