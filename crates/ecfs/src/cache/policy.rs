//! Pluggable page-cache replacement policies and the deterministic
//! [`PageCache`] they drive.
//!
//! The cache tracks *presence* only — 4 KiB page keys, no payload bytes —
//! because the simulator models timing and placement, not data content.
//! All three policies are strictly deterministic (no clocks, no RNG), so a
//! cached replay stays byte-identical from run to run.

use std::collections::HashMap;
use std::fmt;

use crate::layout::BlockAddr;

/// Cache page granularity: one page per paper-sized sub-block update.
pub const PAGE_BYTES: u64 = 4096;

/// Replacement policy for the node-local read cache.
///
/// * [`CachePolicy::Lru`] — exact recency order (hash map + intrusive list).
/// * [`CachePolicy::Plru`] — one reference bit per page and a clock hand:
///   the classic pseudo-LRU used where true LRU bookkeeping is too hot.
/// * [`CachePolicy::Adaptive`] — a small saturating frequency counter per
///   page aged by the clock hand (à la `mlcr`'s frequency-adaptive track):
///   hot pages survive scans that would flush an LRU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CachePolicy {
    /// Exact least-recently-used eviction.
    Lru,
    /// Pseudo-LRU: reference bit + clock hand.
    Plru,
    /// Frequency-adaptive: saturating per-page counter aged by the hand.
    Adaptive,
}

impl CachePolicy {
    /// Every policy, in sweep order.
    pub const ALL: [CachePolicy; 3] = [CachePolicy::Lru, CachePolicy::Plru, CachePolicy::Adaptive];

    /// The lowercase spec-grammar name (`"lru"`, `"plru"`, `"adaptive"`).
    pub fn name(&self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Plru => "plru",
            CachePolicy::Adaptive => "adaptive",
        }
    }

    /// Parses a policy name, case-insensitively.
    pub fn parse(s: &str) -> Option<CachePolicy> {
        let s = s.trim();
        CachePolicy::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One cached page: `(block, page-index-within-block)`.
type PageKey = (BlockAddr, u32);

const NIL: u32 = u32::MAX;

/// Frequency ceiling for [`CachePolicy::Adaptive`] counters.
const FREQ_MAX: u8 = 3;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: PageKey,
    /// LRU list neighbours (unused by the clock policies).
    prev: u32,
    next: u32,
    /// Reference bit (PLRU) or saturating frequency counter (Adaptive).
    hot: u8,
}

/// A fixed-capacity page-presence cache with pluggable replacement.
///
/// Lookup and insert are O(1) for LRU; the clock policies are amortised
/// O(1) (each eviction advances the hand past slots whose heat it decays).
/// Capacity is fixed at construction; the slot slab never reallocates past
/// it, so [`PageCache::memory_bytes`] is an honest bound.
#[derive(Debug)]
pub struct PageCache {
    policy: CachePolicy,
    cap: usize,
    map: HashMap<PageKey, u32>,
    slots: Vec<Slot>,
    /// MRU end of the LRU list.
    head: u32,
    /// LRU end of the LRU list (the victim).
    tail: u32,
    /// Clock hand (PLRU / Adaptive).
    hand: usize,
}

impl PageCache {
    /// A cache of `capacity_bytes` rounded down to whole pages (minimum 1).
    pub fn new(policy: CachePolicy, capacity_bytes: u64) -> PageCache {
        let cap = ((capacity_bytes / PAGE_BYTES).max(1)) as usize;
        PageCache {
            policy,
            cap,
            map: HashMap::with_capacity(cap.min(1 << 16)),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            hand: 0,
        }
    }

    /// The policy this cache replaces with.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Pages currently resident.
    pub fn pages(&self) -> usize {
        self.slots.len()
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.cap
    }

    /// Resident footprint: page payloads plus per-slot index overhead.
    pub fn memory_bytes(&self) -> u64 {
        self.slots.len() as u64 * (PAGE_BYTES + 64)
    }

    /// Read-path probe: `true` iff *every* page of `[offset, offset+len)`
    /// is resident. A full hit promotes each page (recency / heat); a
    /// partial miss promotes nothing — the caller will [`Self::fill`] the
    /// range after charging the disk.
    pub fn probe(&mut self, addr: BlockAddr, offset: u32, len: u32) -> bool {
        if len == 0 {
            return false;
        }
        let (first, last) = page_span(offset, len);
        for page in first..=last {
            if !self.map.contains_key(&(addr, page)) {
                return false;
            }
        }
        for page in first..=last {
            let i = self.map[&(addr, page)];
            self.touch(i);
        }
        true
    }

    /// Inserts every page of `[offset, offset+len)` (write-allocate on the
    /// update path, read-allocate after a miss). Pages already resident are
    /// promoted instead.
    pub fn fill(&mut self, addr: BlockAddr, offset: u32, len: u32) {
        if len == 0 {
            return;
        }
        let (first, last) = page_span(offset, len);
        for page in first..=last {
            match self.map.get(&(addr, page)) {
                Some(&i) => self.touch(i),
                None => self.insert((addr, page)),
            }
        }
    }

    fn touch(&mut self, i: u32) {
        match self.policy {
            CachePolicy::Lru => {
                self.detach(i);
                self.push_front(i);
            }
            CachePolicy::Plru => self.slots[i as usize].hot = 1,
            CachePolicy::Adaptive => {
                let h = &mut self.slots[i as usize].hot;
                *h = (*h + 1).min(FREQ_MAX);
            }
        }
    }

    fn insert(&mut self, key: PageKey) {
        if self.slots.len() < self.cap {
            let i = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                prev: NIL,
                next: NIL,
                hot: 1,
            });
            self.map.insert(key, i);
            if self.policy == CachePolicy::Lru {
                self.push_front(i);
            }
            return;
        }
        let victim = self.pick_victim();
        let old = self.slots[victim as usize].key;
        self.map.remove(&old);
        self.map.insert(key, victim);
        let slot = &mut self.slots[victim as usize];
        slot.key = key;
        slot.hot = 1;
        if self.policy == CachePolicy::Lru {
            self.detach(victim);
            self.push_front(victim);
        }
    }

    fn pick_victim(&mut self) -> u32 {
        match self.policy {
            CachePolicy::Lru => self.tail,
            CachePolicy::Plru | CachePolicy::Adaptive => {
                let n = self.slots.len();
                loop {
                    let h = self.slots[self.hand].hot;
                    if h == 0 {
                        let v = self.hand as u32;
                        self.hand = (self.hand + 1) % n;
                        return v;
                    }
                    self.slots[self.hand].hot = h - 1;
                    self.hand = (self.hand + 1) % n;
                }
            }
        }
    }

    fn detach(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head == i {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.tail == i {
            self.tail = prev;
        }
        let s = &mut self.slots[i as usize];
        s.prev = NIL;
        s.next = NIL;
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

/// Inclusive page-index range touched by `[offset, offset+len)`, `len > 0`.
fn page_span(offset: u32, len: u32) -> (u32, u32) {
    let first = offset / PAGE_BYTES as u32;
    let last = (offset + len - 1) / PAGE_BYTES as u32;
    (first, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(stripe: u64) -> BlockAddr {
        BlockAddr {
            volume: 0,
            stripe,
            index: 0,
        }
    }

    #[test]
    fn lru_evicts_coldest() {
        // Two-page cache: fill A, B, touch A, insert C -> B evicted.
        let mut c = PageCache::new(CachePolicy::Lru, 2 * PAGE_BYTES);
        c.fill(addr(0), 0, 1);
        c.fill(addr(1), 0, 1);
        assert!(c.probe(addr(0), 0, 1));
        c.fill(addr(2), 0, 1);
        assert!(c.probe(addr(0), 0, 1));
        assert!(!c.probe(addr(1), 0, 1));
        assert!(c.probe(addr(2), 0, 1));
    }

    #[test]
    fn clock_policies_respect_capacity() {
        for policy in [CachePolicy::Plru, CachePolicy::Adaptive] {
            let mut c = PageCache::new(policy, 4 * PAGE_BYTES);
            for s in 0..32 {
                c.fill(addr(s), 0, 4096);
            }
            assert_eq!(c.pages(), 4, "{policy}: slab must stay at capacity");
        }
    }

    #[test]
    fn adaptive_keeps_hot_page_through_scan() {
        let mut c = PageCache::new(CachePolicy::Adaptive, 4 * PAGE_BYTES);
        c.fill(addr(100), 0, 1);
        for _ in 0..3 {
            assert!(c.probe(addr(100), 0, 1)); // heat to FREQ_MAX
        }
        // A scan of 6 cold pages must not displace the hot one.
        for s in 0..6 {
            c.fill(addr(s), 0, 1);
        }
        assert!(c.probe(addr(100), 0, 1));
    }

    #[test]
    fn multi_page_probe_is_all_or_nothing() {
        let mut c = PageCache::new(CachePolicy::Lru, 8 * PAGE_BYTES);
        c.fill(addr(0), 0, 8192); // pages 0,1
        assert!(c.probe(addr(0), 0, 8192));
        assert!(c.probe(addr(0), 4096, 4096));
        assert!(!c.probe(addr(0), 4096, 8192)); // page 2 absent
    }

    #[test]
    fn policy_parse_round_trips() {
        for p in CachePolicy::ALL {
            assert_eq!(CachePolicy::parse(p.name()), Some(p));
            assert_eq!(CachePolicy::parse(&p.name().to_uppercase()), Some(p));
        }
        assert_eq!(CachePolicy::parse("arc"), None);
    }
}
