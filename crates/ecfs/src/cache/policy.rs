//! The deterministic LRU [`PageCache`] behind the node-local read cache.
//!
//! The cache tracks *presence* only — 4 KiB page keys, no payload bytes —
//! because the simulator models timing and placement, not data content.
//! Eviction is exact least-recently-used order with no clocks and no RNG,
//! so a cached replay stays byte-identical from run to run.

use tsue::fastmap::FastMap;

use crate::layout::BlockAddr;

/// Cache page granularity: one page per paper-sized sub-block update.
pub const PAGE_BYTES: u64 = 4096;

/// One cached page: `(block, page-index-within-block)`.
type PageKey = (BlockAddr, u32);

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: PageKey,
    /// LRU list neighbours.
    prev: u32,
    next: u32,
}

/// A fixed-capacity page-presence cache with exact LRU replacement.
///
/// Lookup and insert are O(1) (hash map + intrusive recency list).
/// Capacity is fixed at construction; the slot slab never reallocates past
/// it, so [`PageCache::memory_bytes`] is an honest bound.
#[derive(Debug)]
pub struct PageCache {
    cap: usize,
    map: FastMap<PageKey, u32>,
    slots: Vec<Slot>,
    /// MRU end of the LRU list.
    head: u32,
    /// LRU end of the LRU list (the victim).
    tail: u32,
}

impl PageCache {
    /// A cache of `capacity_bytes` rounded down to whole pages (minimum 1).
    pub fn new(capacity_bytes: u64) -> PageCache {
        let cap = ((capacity_bytes / PAGE_BYTES).max(1)) as usize;
        PageCache {
            cap,
            map: FastMap::with_capacity_and_hasher(cap.min(1 << 16), Default::default()),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Resident footprint: page payloads plus per-slot index overhead.
    pub fn memory_bytes(&self) -> u64 {
        self.slots.len() as u64 * (PAGE_BYTES + 64)
    }

    /// Read-path probe: `true` iff *every* page of `[offset, offset+len)`
    /// is resident. A full hit promotes each page to most recent; a
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
        self.detach(i);
        self.push_front(i);
    }

    fn insert(&mut self, key: PageKey) {
        if self.slots.len() < self.cap {
            let i = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, i);
            self.push_front(i);
            return;
        }
        let victim = self.tail;
        let old = self.slots[victim as usize].key;
        self.map.remove(&old);
        self.map.insert(key, victim);
        self.slots[victim as usize].key = key;
        self.touch(victim);
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
        let mut c = PageCache::new(2 * PAGE_BYTES);
        c.fill(addr(0), 0, 1);
        c.fill(addr(1), 0, 1);
        assert!(c.probe(addr(0), 0, 1));
        c.fill(addr(2), 0, 1);
        assert!(c.probe(addr(0), 0, 1));
        assert!(!c.probe(addr(1), 0, 1));
        assert!(c.probe(addr(2), 0, 1));
    }

    #[test]
    fn multi_page_probe_is_all_or_nothing() {
        let mut c = PageCache::new(8 * PAGE_BYTES);
        c.fill(addr(0), 0, 8192); // pages 0,1
        assert!(c.probe(addr(0), 0, 8192));
        assert!(c.probe(addr(0), 4096, 4096));
        assert!(!c.probe(addr(0), 4096, 8192)); // page 2 absent
    }
}
