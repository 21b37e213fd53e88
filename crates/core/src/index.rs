//! The two-level index (§3.3.1): block hash map on top, offset-sorted
//! non-overlapping ranges below, with a bitmap accelerator per block.
//!
//! All spatio-temporal merging happens at insert time, so a log unit's index
//! always holds the *minimal* set of ranges needed to recycle it:
//!
//! * **same-position** records collapse — newest-wins for data
//!   ([`MergeMode::Overwrite`]), XOR-fold for deltas ([`MergeMode::Xor`],
//!   Eq. 3 of the paper);
//! * **adjacent** records concatenate into one larger range, turning many
//!   small random I/Os into few large ones;
//! * a per-block bitmap gives O(1) "definitely not present" answers so read
//!   lookups skip blocks that never saw an update.
//!
//! An insert costs the record plus the entries it absorbs, not the merged
//! range: it marks only its own chunks in the bitmap (a merged range's
//! chunks are the union of its parts', each marked when it was inserted,
//! and bits are never cleared), and it splices the merged payload from the
//! removed entries one at a time, with no scratch vectors.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

use crate::payload::Payload;

/// Bitmap chunk granularity (bytes per presence bit).
const SUB_GRAIN: u32 = 4096;

/// How same-position content resolves when records collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeMode {
    /// Newest record wins (DataLog semantics: Eq. 4 — only the latest value
    /// of an address matters).
    Overwrite,
    /// Records XOR together (DeltaLog/ParityLog semantics: Eq. 3 — deltas
    /// for one address fold into their net effect).
    Xor,
}

/// Per-block second level: offset-sorted, non-overlapping, non-adjacent
/// ranges plus the presence bitmap.
#[derive(Debug, Clone)]
pub struct BlockIndex<P> {
    entries: BTreeMap<u32, P>,
    bitmap: Vec<u64>,
}

impl<P: Payload> Default for BlockIndex<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Payload> BlockIndex<P> {
    /// Empty block index.
    pub fn new() -> BlockIndex<P> {
        BlockIndex {
            entries: BTreeMap::new(),
            bitmap: Vec::new(),
        }
    }

    /// Number of live (merged) ranges.
    pub fn range_count(&self) -> usize {
        self.entries.len()
    }

    /// Sets the presence bits of every chunk `[start, end)` touches, a word
    /// at a time. An insert marks only its own record: the entries it
    /// absorbs had their chunks marked when they were inserted, so the
    /// merged range's bits are already the union of its parts'.
    fn mark_bitmap(&mut self, start: u32, end: u32) {
        let first = (start / SUB_GRAIN) as usize;
        let last = ((end - 1) / SUB_GRAIN) as usize;
        if last / 64 >= self.bitmap.len() {
            self.bitmap.resize(last / 64 + 1, 0);
        }
        for (word, mask) in chunk_words(first, last) {
            self.bitmap[word] |= mask;
        }
    }

    /// Definite-miss test: `true` means no byte of `[off, off+len)` can be
    /// present (the fast path that spares the tree walk).
    pub fn definitely_absent(&self, off: u32, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        let first = (off / SUB_GRAIN) as usize;
        let last = ((off + len - 1) / SUB_GRAIN) as usize;
        chunk_words(first, last)
            .map_while(|(word, mask)| self.bitmap.get(word).map(|w| w & mask))
            .all(|hits| hits == 0)
    }

    /// Inserts a record at `off`, merging with everything it overlaps or
    /// touches.
    ///
    /// A record inside one live range folds into it in place (its bytes
    /// overwrite, or XOR into, the range's), with no tree edit. Otherwise
    /// the touching predecessor and then each entry in `[off, end]` are
    /// removed in offset order. Each contributes, in address order, the new
    /// record's gap before it, its head before `off`, the overlap (the new
    /// bytes, or old XOR new), and its tail past `end`; the new record's
    /// remaining tail closes the range. Runs of new bytes are spliced in as
    /// one slice, and each entry is dropped before its pieces are spliced,
    /// so the range grows in place and an overwrite costs at most head +
    /// record + tail.
    ///
    /// # Panics
    /// Panics on empty payloads or offset overflow.
    pub fn insert(&mut self, off: u32, payload: P, mode: MergeMode) {
        let len = payload.len();
        assert!(len > 0, "empty payload");
        let end = off.checked_add(len).expect("offset overflow");
        self.mark_bitmap(off, end);

        // Entries are non-overlapping and non-adjacent, so at most one can
        // start at or before `off` and still reach it, and no entry starts
        // between it and `off`.
        let span_start = match self.entries.range_mut(..=off).next_back() {
            Some((&s, e)) if s + e.len() >= end => {
                match mode {
                    MergeMode::Overwrite => e.overwrite_at(off - s, &payload),
                    MergeMode::Xor => e.xor_at(off - s, &payload),
                }
                return;
            }
            Some((&s, e)) if s + e.len() >= off => s,
            _ => off,
        };
        let mut merged: Option<P> = None;
        // New bytes `[off, spliced)` are already in `merged`.
        let mut spliced = off;
        while let Some((&s, _)) = self.entries.range(span_start..=end).next() {
            let e = self.entries.remove(&s).expect("entry just found");
            let e_end = s + e.len();
            // Outside the in-place case an entry has a head or a tail, not
            // both.
            let head = (s < off).then(|| e.slice(0, off - s));
            let (lo, hi) = (s.max(off), e_end.min(end));
            let overlap = (mode == MergeMode::Xor && lo < hi).then(|| {
                let mut x = e.slice(lo - s, hi - s);
                x.xor_with(&payload.slice(lo - off, hi - off));
                x
            });
            let tail = (e_end > end).then(|| e.slice(end - s, e_end - s));
            drop(e);
            if let Some(head) = head {
                append(&mut merged, head);
            }
            if let Some(x) = overlap {
                if spliced < lo {
                    append(&mut merged, payload.slice(spliced - off, lo - off));
                }
                append(&mut merged, x);
                spliced = hi;
            }
            if let Some(tail) = tail {
                if spliced < end {
                    append(&mut merged, payload.slice(spliced - off, len));
                    spliced = end;
                }
                append(&mut merged, tail);
            }
        }
        if spliced < end {
            append(&mut merged, payload.slice(spliced - off, len));
        }
        let merged = merged.expect("the record is never empty");
        self.entries.insert(span_start, merged);
    }

    /// Pieces of `[off, off+len)` that are present, clipped to the query,
    /// as `(piece_offset, payload)` sorted by offset.
    pub fn lookup(&self, off: u32, len: u32) -> Vec<(u32, P)> {
        if len == 0 || self.definitely_absent(off, len) {
            return Vec::new();
        }
        let end = off + len;
        let mut out = Vec::new();
        if let Some((&s, e)) = self.entries.range(..off).next_back() {
            let e_end = s + e.len();
            if e_end > off {
                out.push((off, e.slice(off - s, e_end.min(end) - s)));
            }
        }
        for (&s, e) in self.entries.range(off..end) {
            let e_end = s + e.len();
            out.push((s, e.slice(0, e_end.min(end) - s)));
        }
        out
    }

    /// Whether `[off, off+len)` is fully covered by live ranges.
    pub fn covers(&self, off: u32, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        if self.definitely_absent(off, len) {
            return false;
        }
        let end = off + len;
        let mut cursor = match self.entries.range(..off).next_back() {
            Some((&s, e)) => off.max(s + e.len()),
            None => off,
        };
        for (&s, e) in self.entries.range(off..end) {
            if cursor >= end || s > cursor {
                break;
            }
            cursor = cursor.max(s + e.len());
        }
        cursor >= end
    }

    /// End of the live range holding byte `off`, if one does.
    pub(crate) fn range_end_at(&self, off: u32) -> Option<u32> {
        let (&s, e) = self.entries.range(..=off).next_back()?;
        let end = s + e.len();
        (end > off).then_some(end)
    }

    /// Consumes the index, yielding sorted `(offset, payload)` ranges.
    pub fn into_sorted_ranges(self) -> Vec<(u32, P)> {
        self.entries.into_iter().collect()
    }

    /// Iterates live ranges in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &P)> {
        self.entries.iter().map(|(&o, p)| (o, p))
    }
}

/// `(word, mask)` pairs covering bitmap chunks `first..=last`.
fn chunk_words(first: usize, last: usize) -> impl Iterator<Item = (usize, u64)> {
    (first / 64..=last / 64).map(move |word| {
        let lo = first.max(word * 64) % 64;
        let hi = last.min(word * 64 + 63) % 64;
        (word, (u64::MAX >> (63 - hi)) & (u64::MAX << lo))
    })
}

/// Appends `piece` to the range being spliced.
fn append<P: Payload>(merged: &mut Option<P>, piece: P) {
    *merged = Some(match merged.take() {
        None => piece,
        Some(acc) => acc.concat(piece),
    });
}

/// The two-level index: block hash map over [`BlockIndex`]es.
#[derive(Debug, Clone)]
pub struct TwoLevelIndex<K, P> {
    blocks: HashMap<K, BlockIndex<P>>,
    mode: MergeMode,
}

impl<K: Hash + Eq + Clone, P: Payload> TwoLevelIndex<K, P> {
    /// Empty index with the given merge mode.
    pub fn new(mode: MergeMode) -> TwoLevelIndex<K, P> {
        TwoLevelIndex {
            blocks: HashMap::new(),
            mode,
        }
    }

    /// Inserts one record.
    pub fn insert(&mut self, key: K, off: u32, payload: P) {
        match self.blocks.entry(key) {
            Entry::Occupied(mut e) => e.get_mut().insert(off, payload, self.mode),
            Entry::Vacant(v) => {
                v.insert(BlockIndex::new()).insert(off, payload, self.mode);
            }
        }
    }

    /// Looks up present pieces of a range under `key`.
    pub fn lookup(&self, key: &K, off: u32, len: u32) -> Vec<(u32, P)> {
        self.blocks
            .get(key)
            .map(|b| b.lookup(off, len))
            .unwrap_or_default()
    }

    /// Whether a range is fully covered.
    pub fn covers(&self, key: &K, off: u32, len: u32) -> bool {
        self.blocks
            .get(key)
            .map(|b| b.covers(off, len))
            .unwrap_or(false)
    }

    /// End of the live range under `key` holding byte `off`, if one does.
    pub(crate) fn range_end_at(&self, key: &K, off: u32) -> Option<u32> {
        self.blocks.get(key)?.range_end_at(off)
    }

    /// Fast definite-miss test.
    pub fn definitely_absent(&self, key: &K, off: u32, len: u32) -> bool {
        self.blocks
            .get(key)
            .map(|b| b.definitely_absent(off, len))
            .unwrap_or(true)
    }

    /// Removes one block's ranges (sorted) from the index.
    pub fn remove_block(&mut self, key: &K) -> Option<Vec<(u32, P)>> {
        self.blocks.remove(key).map(|b| b.into_sorted_ranges())
    }

    /// Drains the whole index as `(key, sorted ranges)` pairs.
    pub fn drain_all(&mut self) -> Vec<(K, Vec<(u32, P)>)> {
        self.blocks
            .drain()
            .map(|(k, b)| (k, b.into_sorted_ranges()))
            .collect()
    }

    /// Keys with live ranges.
    pub fn block_keys(&self) -> impl Iterator<Item = &K> {
        self.blocks.keys()
    }

    /// Live (merged) ranges across all blocks.
    pub fn range_count(&self) -> usize {
        self.blocks.values().map(|b| b.range_count()).sum()
    }

    /// Clears everything (unit reuse), keeping allocation capacity.
    pub fn clear(&mut self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{Data, Ghost};

    #[test]
    fn duplicate_records_merge_to_one() {
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        for _ in 0..10 {
            b.insert(100, Ghost(50), MergeMode::Overwrite);
        }
        assert_eq!(b.into_sorted_ranges(), vec![(100, Ghost(50))]);
    }

    #[test]
    fn adjacent_records_concatenate() {
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        b.insert(0, Ghost(10), MergeMode::Overwrite);
        b.insert(10, Ghost(10), MergeMode::Overwrite);
        b.insert(20, Ghost(10), MergeMode::Overwrite);
        assert_eq!(b.range_count(), 1);
        assert_eq!(b.into_sorted_ranges(), vec![(0, Ghost(30))]);
    }

    #[test]
    fn disjoint_records_stay_separate() {
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        b.insert(0, Ghost(10), MergeMode::Overwrite);
        b.insert(100, Ghost(10), MergeMode::Overwrite);
        assert_eq!(b.range_count(), 2);
    }

    #[test]
    fn overwrite_newest_wins_bytes() {
        let mut b: BlockIndex<Data> = BlockIndex::new();
        b.insert(0, Data::copy_from(&[1, 1, 1, 1]), MergeMode::Overwrite);
        b.insert(1, Data::copy_from(&[2, 2]), MergeMode::Overwrite);
        let ranges = b.into_sorted_ranges();
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges[0].1.as_slice(), &[1, 2, 2, 1]);
    }

    #[test]
    fn xor_mode_folds_overlap() {
        let mut b: BlockIndex<Data> = BlockIndex::new();
        b.insert(0, Data::copy_from(&[0xf0, 0xf0]), MergeMode::Xor);
        b.insert(1, Data::copy_from(&[0x0f, 0x0f]), MergeMode::Xor);
        let ranges = b.into_sorted_ranges();
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].1.as_slice(), &[0xf0, 0xff, 0x0f]);
    }

    #[test]
    fn bridge_merge_spans_gap() {
        // [0,4) and [8,12) bridged by [2,10): one range [0,12).
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        b.insert(0, Ghost(4), MergeMode::Overwrite);
        b.insert(8, Ghost(4), MergeMode::Overwrite);
        b.insert(2, Ghost(8), MergeMode::Overwrite);
        assert_eq!(b.into_sorted_ranges(), vec![(0, Ghost(12))]);
    }

    #[test]
    fn lookup_clips_to_query() {
        let mut b: BlockIndex<Data> = BlockIndex::new();
        b.insert(
            10,
            Data::copy_from(&[1, 2, 3, 4, 5, 6]),
            MergeMode::Overwrite,
        );
        let hits = b.lookup(12, 2);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 12);
        assert_eq!(hits[0].1.as_slice(), &[3, 4]);
    }

    #[test]
    fn covers_detects_gaps() {
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        b.insert(0, Ghost(10), MergeMode::Overwrite);
        b.insert(20, Ghost(10), MergeMode::Overwrite);
        assert!(b.covers(0, 10));
        assert!(b.covers(22, 5));
        assert!(!b.covers(5, 10));
        assert!(!b.covers(0, 30));
    }

    #[test]
    fn bitmap_definite_absent() {
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        b.insert(0, Ghost(100), MergeMode::Overwrite);
        assert!(!b.definitely_absent(0, 10));
        assert!(!b.definitely_absent(200, 10)); // same 4 KiB chunk: maybe
        assert!(b.definitely_absent(1 << 20, 10)); // far away: definitely not
    }

    #[test]
    fn two_level_insert_lookup_remove() {
        let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Overwrite);
        idx.insert(1, 0, Ghost(10));
        idx.insert(2, 0, Ghost(20));
        idx.insert(1, 10, Ghost(10));
        assert_eq!(idx.range_count(), 2);
        assert_eq!(idx.lookup(&1, 0, 100), vec![(0, Ghost(20))]);
        assert!(idx.covers(&1, 5, 10));
        assert!(!idx.covers(&3, 0, 1));
        assert_eq!(idx.remove_block(&1), Some(vec![(0, Ghost(20))]));
        assert_eq!(idx.remove_block(&1), None);
        assert_eq!(idx.range_count(), 1);
    }

    #[test]
    fn repeated_records_consolidate_to_one_range() {
        let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Overwrite);
        for _ in 0..100 {
            idx.insert(1, 0, Ghost(4096));
        }
        assert_eq!(idx.range_count(), 1);
        assert_eq!(idx.lookup(&1, 0, u32::MAX), vec![(0, Ghost(4096))]);
    }

    #[test]
    fn clear_resets() {
        let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Xor);
        idx.insert(1, 0, Ghost(10));
        idx.clear();
        assert_eq!(idx.range_count(), 0);
        assert!(idx.definitely_absent(&1, 0, 10));
    }

    #[test]
    fn drain_all_returns_everything_sorted() {
        let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Overwrite);
        idx.insert(5, 40, Ghost(8));
        idx.insert(5, 0, Ghost(8));
        idx.insert(9, 16, Ghost(8));
        let mut all = idx.drain_all();
        all.sort_by_key(|(k, _)| *k);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, vec![(0, Ghost(8)), (40, Ghost(8))]);
        assert_eq!(idx.range_count(), 0);
    }

    impl<P: Payload> BlockIndex<P> {
        /// The insert the splice replaced, kept as the reference: collect
        /// every colliding entry, sweep their boundary points, and re-mark
        /// the whole merged span one chunk at a time.
        fn reference_insert(&mut self, off: u32, payload: P, mode: MergeMode) {
            let len = payload.len();
            assert!(len > 0, "empty payload");
            let end = off.checked_add(len).expect("offset overflow");

            let mut collected: Vec<(u32, P)> = Vec::new();
            if let Some((&s, e)) = self.entries.range(..off).next_back() {
                if s + e.len() >= off {
                    collected.push((s, self.entries.remove(&s).unwrap()));
                }
            }
            let overlapping: Vec<u32> = self.entries.range(off..=end).map(|(&s, _)| s).collect();
            for s in overlapping {
                let e = self.entries.remove(&s).unwrap();
                collected.push((s, e));
            }

            let (span_start, merged_payload) = Self::sweep_merge(off, payload, &collected, mode);
            let span_end = span_start + merged_payload.len();
            self.entries.insert(span_start, merged_payload);

            let first = (span_start / SUB_GRAIN) as usize;
            let last = ((span_end - 1) / SUB_GRAIN) as usize;
            if last / 64 >= self.bitmap.len() {
                self.bitmap.resize(last / 64 + 1, 0);
            }
            for chunk in first..=last {
                self.bitmap[chunk / 64] |= 1 << (chunk % 64);
            }
        }

        /// Segment sweep producing the single merged range covering the new
        /// record and everything it collided with.
        fn sweep_merge(off: u32, new: P, old: &[(u32, P)], mode: MergeMode) -> (u32, P) {
            let end = off + new.len();
            if old.is_empty() {
                return (off, new);
            }
            let span_start = off.min(old[0].0);
            let span_end = end.max(old.last().map(|(s, e)| s + e.len()).unwrap());

            let mut points: Vec<u32> = Vec::with_capacity(old.len() * 2 + 4);
            points.push(span_start);
            points.push(span_end);
            points.push(off.clamp(span_start, span_end));
            points.push(end.clamp(span_start, span_end));
            for &(s, ref e) in old {
                points.push(s);
                points.push(s + e.len());
            }
            points.sort_unstable();
            points.dedup();

            let mut result: Option<P> = None;
            for w in points.windows(2) {
                let (a, b) = (w[0], w[1]);
                if a == b {
                    continue;
                }
                let in_new = a >= off && b <= end;
                let old_piece = old
                    .iter()
                    .find(|(s, e)| *s <= a && a < s + e.len())
                    .map(|(s, e)| e.slice(a - s, b - s));
                let piece = match (old_piece, in_new) {
                    (Some(op), true) => match mode {
                        MergeMode::Overwrite => new.slice(a - off, b - off),
                        MergeMode::Xor => {
                            let mut x = op;
                            x.xor_with(&new.slice(a - off, b - off));
                            x
                        }
                    },
                    (Some(op), false) => op,
                    (None, true) => new.slice(a - off, b - off),
                    (None, false) => {
                        debug_assert!(false, "uncovered segment [{a}, {b})");
                        continue;
                    }
                };
                result = Some(match result {
                    None => piece,
                    Some(acc) => acc.concat(piece),
                });
            }
            (span_start, result.expect("at least one segment"))
        }

        /// The per-chunk definite-miss test the word masks replaced.
        fn reference_definitely_absent(&self, off: u32, len: u32) -> bool {
            if len == 0 {
                return true;
            }
            let first = (off / SUB_GRAIN) as usize;
            let last = ((off + len - 1) / SUB_GRAIN) as usize;
            for chunk in first..=last {
                if let Some(word) = self.bitmap.get(chunk / 64) {
                    if word >> (chunk % 64) & 1 == 1 {
                        return false;
                    }
                }
            }
            true
        }

        /// Coverage read off [`BlockIndex::lookup`]'s clipped pieces.
        fn reference_covers(&self, off: u32, len: u32) -> bool {
            let mut cursor = off;
            let end = off + len;
            for (s, p) in self.lookup(off, len) {
                if s > cursor {
                    return false;
                }
                cursor = cursor.max(s + p.len());
                if cursor >= end {
                    return true;
                }
            }
            cursor >= end
        }
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 33
    }

    fn random_data(x: &mut u64, len: u32) -> Data {
        let mut bytes = vec![0u8; len as usize];
        for chunk in bytes.chunks_mut(4) {
            chunk.copy_from_slice(&lcg(x).to_le_bytes()[..chunk.len()]);
        }
        Data::from_vec(bytes)
    }

    fn assert_same(fast: &BlockIndex<Data>, slow: &BlockIndex<Data>, what: &str) {
        fn entries(b: &BlockIndex<Data>) -> Vec<(u32, &[u8])> {
            b.iter().map(|(o, p)| (o, p.as_slice())).collect()
        }
        assert!(entries(fast) == entries(slow), "{what}: entries differ");
        assert_eq!(fast.bitmap, slow.bitmap, "{what}: bitmap");
    }

    /// Views a reader holds, each with a copy of its bytes.
    fn hold(views: impl Iterator<Item = Data>) -> Vec<(Data, Vec<u8>)> {
        views.map(|v| (v.clone(), v.as_slice().to_vec())).collect()
    }

    fn assert_unchanged(held: &[(Data, Vec<u8>)], what: &str) {
        for (view, bytes) in held {
            assert!(view.as_slice() == bytes, "{what}: a held view changed");
        }
    }

    /// The splicing insert against the reference sweep on real bytes:
    /// equal entries, bytes and bitmap words after every
    /// insert, in both merge modes, through a fixed prefix of the edge
    /// cases and then seeded churn; `definitely_absent` and `covers` are
    /// checked on random queries against their per-chunk and
    /// lookup-based references. Lookup pieces and entry slices held across
    /// an insert, in-place folds included, keep their bytes.
    #[test]
    fn insert_matches_reference_sweep() {
        const BLOCK: u32 = 512 << 10;
        const WORD: u32 = 64 * SUB_GRAIN;
        // (offset, length), in order, starting from an empty block.
        let prefix = [
            (10_000, 100),
            (10_100, 50),      // touches on the left
            (9_900, 100),      // touches on the right
            (20_000, 10),      // a separate entry
            (20_000, 10),      // a duplicate of it
            (10_150, 9_850),   // touches on both sides
            (12_000, 30),      // inside one entry
            (40_000, 500),     // three more separate entries
            (41_000, 500),     // ...
            (42_000, 500),     // ...
            (39_800, 3_000),   // bridges all three
            (WORD - 100, 101), // crosses a word, ending one byte into chunk 64
        ];
        for mode in [MergeMode::Overwrite, MergeMode::Xor] {
            let mut x = 99;
            let (mut fast, mut slow) = (BlockIndex::new(), BlockIndex::new());
            for (i, &(off, len)) in prefix.iter().enumerate() {
                let held = hold(fast.lookup(off, len).into_iter().map(|(_, p)| p));
                let p = random_data(&mut x, len);
                fast.insert(off, p.clone(), mode);
                slow.reference_insert(off, p, mode);
                let what = format!("{mode:?} prefix {i}");
                assert_same(&fast, &slow, &what);
                assert_unchanged(&held, &what);
            }
            assert_eq!(fast.range_count(), 3, "{mode:?}");
        }

        let (mut absorbed, mut absent_queries, mut covered_queries) = (0, 0, 0);
        let mut held_in_place = 0;
        for seed in 1..=8u64 {
            for mode in [MergeMode::Overwrite, MergeMode::Xor] {
                let mut x = seed;
                let (mut fast, mut slow) = (BlockIndex::new(), BlockIndex::<Data>::new());
                for call in 0..2_000 {
                    // A log unit's index starts empty after each recycle;
                    // restarting every 125 inserts keeps the block partly
                    // covered.
                    if call % 125 == 0 {
                        (fast, slow) = (BlockIndex::new(), BlockIndex::new());
                    }
                    let entries: Vec<(u32, u32)> = slow.iter().map(|(o, p)| (o, p.len())).collect();
                    let pick = (!entries.is_empty())
                        .then(|| entries[lcg(&mut x) as usize % entries.len()]);
                    let len = match lcg(&mut x) % 8 {
                        0 => 1 + (lcg(&mut x) % (12 << 10)) as u32,
                        _ => 1 + (lcg(&mut x) % 512) as u32,
                    };
                    let (off, len) = match (lcg(&mut x) % 8, pick) {
                        (0, Some((s, l))) => (s + l, len),
                        (1, Some((s, _))) if s >= len => (s - len, len),
                        (2, Some((s, l))) => (s, l.min(12 << 10)),
                        _ => ((lcg(&mut x) % (BLOCK - len) as u64) as u32, len),
                    };
                    let off = off.min(BLOCK - len);
                    let before = slow.range_count();
                    let in_place = entries.iter().any(|&(s, l)| s <= off && off + len <= s + l);
                    // Views a reader may hold across the insert: the pieces
                    // of a lookup, or a slice of every entry.
                    let held = match lcg(&mut x) % 4 {
                        0 => hold(fast.lookup(off, len).into_iter().map(|(_, p)| p)),
                        1 => hold(fast.iter().map(|(_, p)| p.slice(0, p.len() / 2 + 1))),
                        _ => Vec::new(),
                    };
                    let p = random_data(&mut x, len);
                    fast.insert(off, p.clone(), mode);
                    slow.reference_insert(off, p, mode);
                    let what = format!("seed {seed} {mode:?} call {call} [{off}, +{len})");
                    assert_same(&fast, &slow, &what);
                    assert_unchanged(&held, &what);
                    absorbed += (slow.range_count() < before) as u32;
                    held_in_place += (in_place && !held.is_empty()) as u32;

                    for _ in 0..4 {
                        let q_off = (lcg(&mut x) % (BLOCK + WORD) as u64) as u32;
                        let q_len = (lcg(&mut x) % (1 << (lcg(&mut x) % 17))) as u32;
                        let absent = fast.definitely_absent(q_off, q_len);
                        assert_eq!(
                            absent,
                            fast.reference_definitely_absent(q_off, q_len),
                            "{what}"
                        );
                        let covers = fast.covers(q_off, q_len);
                        assert_eq!(covers, fast.reference_covers(q_off, q_len), "{what}");
                        absent_queries += (absent && q_len > 0) as u32;
                        covered_queries += (covers && q_len > 0) as u32;
                    }
                }
            }
        }
        assert!(absorbed > 0, "no insert absorbed two or more entries");
        assert!(
            held_in_place > 0,
            "no view was held across an in-place insert"
        );
        assert!(absent_queries > 0, "no query was definitely absent");
        assert!(covered_queries > 0, "no query was covered");
    }

    #[test]
    fn many_interleaved_inserts_maintain_invariants() {
        // Non-overlap + non-adjacency invariant after arbitrary churn.
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        let mut x = 12345u64;
        for _ in 0..5000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = ((x >> 20) % 100_000) as u32;
            let len = ((x >> 8) % 512 + 1) as u32;
            b.insert(off, Ghost(len), MergeMode::Overwrite);
        }
        let ranges = b.into_sorted_ranges();
        for w in ranges.windows(2) {
            let (s1, ref p1) = w[0];
            let (s2, _) = w[1];
            assert!(s1 + p1.len() < s2, "ranges overlap or touch: {w:?}");
        }
    }
}
