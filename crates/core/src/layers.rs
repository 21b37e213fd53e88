//! The three-layer log schema (§3.1.2): layer keys, multi-pool sets with
//! the recycle protocol both executors share, and the DeltaLog's stripe
//! grouping.
//!
//! * **DataLog** — keyed by global data-block id; holds update *data*
//!   (newest-wins merge). Recycled per block.
//! * **DeltaLog** — keyed by (stripe, data-block index); holds data
//!   *deltas* (XOR merge, Eq. 3). Recycled per stripe so that same-offset
//!   deltas from different blocks combine into one parity delta (Eq. 5).
//! * **ParityLog** — keyed by (stripe, parity index); holds parity
//!   *deltas* (XOR merge). Recycled per parity block.
//!
//! Every layer shares one lifecycle: take a RECYCLABLE unit
//! ([`LogPoolSet::take_recyclable_any`] or, for newest-wins layers,
//! [`LogPoolSet::take_recyclable_ordered`]), fold its contents — already in
//! ascending key order, so per-block and per-parity work needs no further
//! grouping — and hand it back with [`LogPoolSet::finish_recycle`], whose
//! answer says whether that pool has more work.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crate::fastmap::FastMap;
use crate::payload::Payload;
use crate::pool::{AppendOutcome, LogPool, PoolConfig, TakenUnit};
use crate::unit::UnitState;

/// Global data-block identifier (the hash input the paper derives from
/// inode, stripe and block numbers).
pub type BlockId = u64;

/// DeltaLog key: one data block within one stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StripeBlock {
    /// Stripe identifier.
    pub stripe: u64,
    /// Data block index within the stripe (`0..k`).
    pub block_idx: u16,
}

/// ParityLog key: one parity block within one stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParityKey {
    /// Stripe identifier.
    pub stripe: u64,
    /// Parity block index within the stripe (`0..m`).
    pub parity_idx: u16,
}

/// A set of 1–N pools for one log layer on one device, selected by key hash
/// (§4.1: "four log pools are configured for each log structure").
#[derive(Debug, Clone)]
pub struct LogPoolSet<K, P> {
    pools: Vec<LogPool<K, P>>,
}

impl<K: Hash + Eq + Ord + Clone, P: Payload> LogPoolSet<K, P> {
    /// Builds `n_pools` pools with identical configuration.
    ///
    /// # Panics
    /// Panics if `n_pools == 0` or the config is invalid.
    pub fn new(n_pools: usize, cfg: PoolConfig) -> LogPoolSet<K, P> {
        assert!(n_pools > 0, "need at least one pool");
        LogPoolSet {
            pools: (0..n_pools).map(|_| LogPool::new(cfg.clone())).collect(),
        }
    }

    /// The pool index a key routes to.
    ///
    /// Routing hashes with `std`'s fixed-key `DefaultHasher`, not
    /// [`FastMap`]'s hasher: which pool a record lands in sets when it is
    /// recycled, so another hash would move every result.
    pub fn pool_for(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.pools.len() as u64) as usize
    }

    /// Appends a record to the key's pool.
    pub fn append(&mut self, key: K, off: u32, payload: P, now: u64) -> (usize, AppendOutcome) {
        let idx = self.pool_for(&key);
        let out = self.pools[idx].append(key, off, payload, now);
        (idx, out)
    }

    /// Non-stalling append (see [`LogPool::append_overflow`]).
    pub fn append_overflow(
        &mut self,
        key: K,
        off: u32,
        payload: P,
        now: u64,
    ) -> (usize, AppendOutcome) {
        let idx = self.pool_for(&key);
        let out = self.pools[idx].append_overflow(key, off, payload, now);
        (idx, out)
    }

    /// Takes a recyclable unit from any pool (scanning over pools),
    /// returning `(pool_idx, taken_unit)`.
    pub fn take_recyclable_any(&mut self) -> Option<(usize, TakenUnit<K, P>)> {
        self.pools
            .iter_mut()
            .enumerate()
            .find_map(|(i, p)| Some((i, p.take_recyclable()?)))
    }

    /// Like [`Self::take_recyclable_any`], but skips pools that still have
    /// a unit RECYCLING.
    ///
    /// Newest-wins layers (the DataLog) need per-block recycle ordering;
    /// since a block's records always hash to one pool, serialising recycles
    /// *within* a pool is exactly the paper's "log records for the same
    /// block are assigned to the same recycle thread" rule, while distinct
    /// pools still recycle in parallel.
    pub fn take_recyclable_ordered(&mut self) -> Option<(usize, TakenUnit<K, P>)> {
        self.pools
            .iter_mut()
            .enumerate()
            .filter(|(_, p)| p.count_state(UnitState::Recycling) == 0)
            .find_map(|(i, p)| Some((i, p.take_recyclable()?)))
    }

    /// Marks unit `unit_id` of pool `pool` RECYCLED (see
    /// [`LogPool::finish_recycle`]). Returns whether that pool still holds a
    /// RECYCLABLE unit, i.e. whether the recycler should go again.
    pub fn finish_recycle(&mut self, pool: usize, unit_id: u64) -> bool {
        let pool = &mut self.pools[pool];
        pool.finish_recycle(unit_id);
        pool.count_state(UnitState::Recyclable) > 0
    }

    /// Force-seals every non-empty active unit (end-of-run drain).
    pub fn seal_all_active(&mut self) {
        for pool in &mut self.pools {
            pool.seal_active();
        }
    }

    /// Read-cache lookup in the key's pool.
    pub fn lookup(&self, key: &K, off: u32, len: u32) -> Vec<(u32, P)> {
        let idx = self.pool_for(key);
        self.pools[idx].lookup(key, off, len)
    }

    /// Whether the key's pool holds every byte of `[off, off+len)` (see
    /// [`LogPool::covers`]).
    pub fn covers(&self, key: &K, off: u32, len: u32) -> bool {
        self.pools[self.pool_for(key)].covers(key, off, len)
    }

    /// Total memory footprint across pools.
    pub fn memory_bytes(&self) -> u64 {
        self.pools.iter().map(|p| p.memory_bytes()).sum()
    }

    /// Bytes sitting in active (unsealed) units across pools.
    pub fn active_bytes(&self) -> u64 {
        self.pools.iter().map(|p| p.active_bytes()).sum()
    }

    /// Whether every pool is drained: nothing RECYCLABLE or RECYCLING.
    /// Unsealed active data is not covered — call [`Self::seal_all_active`]
    /// first when draining at end of run.
    pub fn is_fully_drained(&self) -> bool {
        self.pools.iter().all(|p| {
            p.count_state(UnitState::Recyclable) == 0 && p.count_state(UnitState::Recycling) == 0
        })
    }
}

/// DeltaLog recycle job: all merged deltas of one stripe, ready for the
/// Eq. 5 cross-block combination.
#[derive(Debug, Clone, PartialEq)]
pub struct StripeDeltaJob<P> {
    /// The stripe.
    pub stripe: u64,
    /// `(data block idx, offset, delta)` sorted by (block, offset).
    pub deltas: Vec<(u16, u32, P)>,
}

/// Groups a drained DeltaLog unit by stripe.
pub fn group_delta_jobs<P: Payload>(
    contents: Vec<(StripeBlock, Vec<(u32, P)>)>,
) -> Vec<StripeDeltaJob<P>> {
    let mut by_stripe: FastMap<u64, Vec<(u16, u32, P)>> = FastMap::default();
    for (key, ranges) in contents {
        let entry = by_stripe.entry(key.stripe).or_default();
        for (off, p) in ranges {
            entry.push((key.block_idx, off, p));
        }
    }
    let mut jobs: Vec<StripeDeltaJob<P>> = by_stripe
        .into_iter()
        .map(|(stripe, mut deltas)| {
            deltas.sort_by_key(|&(b, o, _)| (b, o));
            StripeDeltaJob { stripe, deltas }
        })
        .collect();
    jobs.sort_by_key(|j| j.stripe);
    jobs
}

/// Interval union of a stripe job's deltas: the distinct `(offset, len)`
/// ranges that need one parity delta each per parity block (Eq. 5 — deltas
/// at the same offset across blocks collapse into a single parity delta).
pub fn union_ranges<P: Payload>(deltas: &[(u16, u32, P)]) -> Vec<(u32, u32)> {
    let mut spans: Vec<(u32, u32)> = deltas
        .iter()
        .map(|&(_, off, ref p)| (off, p.len()))
        .collect();
    spans.sort_unstable();
    let mut out: Vec<(u32, u32)> = Vec::new();
    for (off, len) in spans {
        match out.last_mut() {
            Some((lo, ll)) if *lo + *ll >= off => {
                let end = (off + len).max(*lo + *ll);
                *ll = end - *lo;
            }
            _ => out.push((off, len)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::MergeMode;
    use crate::payload::Ghost;
    use crate::unit::LogUnit;

    fn set(pools: usize, unit_bytes: u64) -> LogPoolSet<BlockId, Ghost> {
        let cfg = PoolConfig {
            unit_bytes,
            min_units: 2,
            max_units: 4,
            mode: MergeMode::Overwrite,
        };
        LogPoolSet::new(pools, cfg)
    }

    #[test]
    fn pool_set_routes_consistently() {
        let set = set(4, 16 << 20);
        for key in 0..100u64 {
            assert_eq!(set.pool_for(&key), set.pool_for(&key));
            assert!(set.pool_for(&key) < 4);
        }
    }

    #[test]
    fn pool_set_spreads_keys() {
        let set = set(4, 16 << 20);
        let mut used = [false; 4];
        for key in 0..64u64 {
            used[set.pool_for(&key)] = true;
        }
        assert!(used.iter().all(|&u| u), "64 keys must touch all 4 pools");
    }

    #[test]
    fn append_and_recycle_through_set() {
        let mut set = set(2, 500);
        for i in 0..40u64 {
            let (_, out) = set.append(i % 8, (i as u32) * 100, Ghost(100), i);
            assert_ne!(out, AppendOutcome::Stalled);
        }
        set.seal_all_active();
        let mut records = 0;
        while let Some((pool, taken)) = set.take_recyclable_any() {
            assert!(!taken.contents.is_empty());
            records += taken.records;
            set.finish_recycle(pool, taken.id);
        }
        assert_eq!(records, 40);
        assert!(set.is_fully_drained());
    }

    #[test]
    fn finish_recycle_reports_more_work_in_that_pool() {
        let mut set = set(1, 100);
        for i in 0..3u64 {
            let _ = set.append(i, 0, Ghost(100), i);
        }
        // Units 0 and 1 are sealed; 2 is active.
        let (pool, first) = set.take_recyclable_any().unwrap();
        assert!(
            set.finish_recycle(pool, first.id),
            "unit 1 is still waiting"
        );
        let (pool, second) = set.take_recyclable_any().unwrap();
        assert!(!set.finish_recycle(pool, second.id));
    }

    /// The keys of a sealed unit holding one record per entry of `keys`, in
    /// the order [`LogUnit::start_recycle`] hands them to a recycler.
    fn taken_keys<K: Hash + Eq + Ord + Clone>(keys: &[K]) -> Vec<K> {
        let mut unit: LogUnit<K, Ghost> = LogUnit::new(0, 1 << 20, MergeMode::Xor);
        for (i, k) in keys.iter().enumerate() {
            unit.append(k.clone(), i as u32 * 8, Ghost(4), 0);
        }
        unit.seal();
        unit.start_recycle().into_iter().map(|(k, _)| k).collect()
    }

    /// DataLog recycling applies each block's records as one job, in
    /// ascending block order.
    #[test]
    fn data_jobs_sorted_by_block() {
        assert_eq!(taken_keys(&[9u64, 3]), vec![3, 9]);
    }

    /// ParityLog recycling applies each parity block's deltas as one job,
    /// ordered by stripe, then parity index.
    #[test]
    fn parity_jobs_sorted() {
        let pk = |stripe, parity_idx| ParityKey { stripe, parity_idx };
        assert_eq!(taken_keys(&[pk(2, 1), pk(1, 0)]), vec![pk(1, 0), pk(2, 1)]);
    }

    /// Both executors iterate a taken unit's contents as the per-key jobs,
    /// so every layer's keys must come back in ascending order however they
    /// were inserted.
    #[test]
    fn start_recycle_returns_keys_ascending() {
        fn check<K: Hash + Eq + Ord + Clone + std::fmt::Debug>(keys: Vec<K>) {
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_ne!(keys, sorted, "inserted out of order");
            assert_eq!(taken_keys(&keys), sorted);
        }
        check(vec![9u64, 3, 700, 3, 0, 41]);
        let sb = |stripe, block_idx| StripeBlock { stripe, block_idx };
        check(vec![sb(2, 0), sb(1, 5), sb(1, 2), sb(0, 9), sb(2, 0)]);
        let pk = |stripe, parity_idx| ParityKey { stripe, parity_idx };
        check(vec![pk(2, 1), pk(1, 0), pk(2, 0), pk(1, 2)]);
    }

    #[test]
    fn delta_jobs_group_by_stripe() {
        let contents = vec![
            (
                StripeBlock {
                    stripe: 1,
                    block_idx: 2,
                },
                vec![(100, Ghost(10))],
            ),
            (
                StripeBlock {
                    stripe: 1,
                    block_idx: 0,
                },
                vec![(100, Ghost(10)), (500, Ghost(20))],
            ),
            (
                StripeBlock {
                    stripe: 2,
                    block_idx: 1,
                },
                vec![(0, Ghost(4))],
            ),
        ];
        let jobs = group_delta_jobs(contents);
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].stripe, 1);
        assert_eq!(
            jobs[0].deltas,
            vec![
                (0, 100, Ghost(10)),
                (0, 500, Ghost(20)),
                (2, 100, Ghost(10)),
            ]
        );
        assert_eq!(jobs[1].stripe, 2);
    }

    #[test]
    fn union_ranges_collapses_same_offset_across_blocks() {
        // Two blocks updated at the same stripe offset: Eq. 5 says one
        // parity delta covers both.
        let deltas = vec![
            (0u16, 100u32, Ghost(50)),
            (3u16, 100u32, Ghost(50)),
            (5u16, 100u32, Ghost(50)),
        ];
        assert_eq!(union_ranges(&deltas), vec![(100, 50)]);
    }

    #[test]
    fn union_ranges_merges_overlap_and_keeps_gaps() {
        let deltas = vec![
            (0u16, 0u32, Ghost(10)),
            (1u16, 5u32, Ghost(10)),  // overlaps
            (2u16, 15u32, Ghost(5)),  // touches
            (3u16, 100u32, Ghost(1)), // distinct
        ];
        assert_eq!(union_ranges(&deltas), vec![(0, 20), (100, 1)]);
    }
}
