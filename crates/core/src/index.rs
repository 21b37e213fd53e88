//! The two-level index (§3.3.1): block hash map on top, offset-sorted
//! non-overlapping ranges below.
//!
//! All spatio-temporal merging happens at insert time, so a log unit's index
//! always holds the *minimal* set of ranges needed to recycle it:
//!
//! * **same-position** records collapse — newest-wins for data
//!   ([`MergeMode::Overwrite`]), XOR-fold for deltas ([`MergeMode::Xor`],
//!   Eq. 3 of the paper);
//! * **adjacent** records concatenate into one larger range, turning many
//!   small random I/Os into few large ones.
//!
//! The upper level is a [`FastMap`], hashed without a per-map seed, so two
//! indexes built by one insert sequence list their blocks in one order. The
//! lower level is an offset-sorted vector: ranges never touch, so a block
//! of `block_len` bytes holds at most `block_len / 2` of them, and far
//! fewer in practice. Merging the paper's 4 KiB-aligned records leaves a
//! gap of at least 4 KiB after every range, so a 4 MiB block holds at most
//! 512, and an insert's shift moves a few KiB at most. A block that never
//! saw an update has no entry in the map, and within a block one binary
//! search answers whether a range holds any byte, so the index keeps no
//! presence structure beside its ranges.
//!
//! An insert costs the record plus the entries it absorbs, not the merged
//! range: it splices the merged payload from the removed entries one at a
//! time, with no scratch vectors.
//!
//! Offsets are `u32`. A query's range may run past `u32::MAX`: it answers
//! for its part below `u32::MAX`, since no range can hold a byte there.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use crate::fastmap::FastMap;
use crate::payload::Payload;

/// How same-position content resolves when records collide.
///
/// The mode also sets what a recycled log unit keeps (see
/// [`crate::unit::LogUnit::start_recycle`]): an `Overwrite` unit keeps its
/// data as a read cache, an `Xor` unit hands its deltas over and keeps
/// nothing, since a delta cannot answer a read.
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
/// ranges in one vector.
///
/// Lookups find a range's predecessor by binary search; an insert that
/// absorbs entries drains them and inserts the merged range in their
/// place, shifting the entries after it.
#[derive(Debug, Clone)]
pub struct BlockIndex<P> {
    entries: Vec<(u32, P)>,
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
            entries: Vec::new(),
        }
    }

    /// Number of live (merged) ranges.
    pub fn range_count(&self) -> usize {
        self.entries.len()
    }

    /// Index of the first entry starting after `off`: the entry before it,
    /// if any, is the only one that can hold byte `off`.
    fn after(&self, off: u32) -> usize {
        self.entries.partition_point(|&(s, _)| s <= off)
    }

    /// Whether no byte of `[off, off+len)` is present: exactly when
    /// [`BlockIndex::lookup`] would return nothing. Ranges are sorted and
    /// disjoint, so their ends rise with their starts, and the last range
    /// starting before the query's end is the only one that can reach it.
    pub fn definitely_absent(&self, off: u32, len: u32) -> bool {
        // Clipped to `u32::MAX`: no range holds a byte past it.
        let end = off.saturating_add(len);
        if end == off {
            return true;
        }
        let before_end = self.entries.partition_point(|&(s, _)| s < end);
        before_end.checked_sub(1).is_none_or(|i| {
            let (s, e) = &self.entries[i];
            s + e.len() <= off
        })
    }

    /// Inserts a record at `off`, merging with everything it overlaps or
    /// touches.
    ///
    /// A record inside one live range folds into it in place (its bytes
    /// overwrite, or XOR into, the range's), with no vector edit. Otherwise
    /// the absorbed run — the touching predecessor, then each entry
    /// starting in `[off, end]` — is drained in offset order. Each entry
    /// contributes, in address order, the new record's gap before it, its
    /// head before `off`, the overlap (the new bytes, or old XOR new), and
    /// its tail past `end`; the new record's remaining tail closes the
    /// range, which is inserted where the run was. Runs of new bytes are
    /// spliced in as one slice, and each entry is dropped before its pieces
    /// are spliced, so the range grows in place and an overwrite costs at
    /// most head + record + tail.
    ///
    /// # Panics
    /// Panics on empty payloads or offset overflow.
    pub fn insert(&mut self, off: u32, payload: P, mode: MergeMode) {
        let len = payload.len();
        assert!(len > 0, "empty payload");
        let end = off.checked_add(len).expect("offset overflow");

        // Entries are non-overlapping and non-adjacent, so at most one can
        // start at or before `off` and still reach it, and no entry starts
        // between it and `off`.
        let after = self.after(off);
        let (first, span_start) = match after.checked_sub(1).map(|i| (i, &mut self.entries[i])) {
            Some((_, (s, e))) if *s + e.len() >= end => {
                match mode {
                    MergeMode::Overwrite => e.overwrite_at(off - *s, &payload),
                    MergeMode::Xor => e.xor_at(off - *s, &payload),
                }
                return;
            }
            Some((i, (s, e))) if *s + e.len() >= off => (i, *s),
            _ => (after, off),
        };
        let last = after
            + self.entries[after..]
                .iter()
                .take_while(|&&(s, _)| s <= end)
                .count();
        let mut merged: Option<P> = None;
        // New bytes `[off, spliced)` are already in `merged`.
        let mut spliced = off;
        for (s, e) in self.entries.drain(first..last) {
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
        self.entries.insert(first, (span_start, merged));
    }

    /// Pieces of `[off, off+len)` that are present, clipped to the query,
    /// as `(piece_offset, payload)` sorted by offset.
    pub fn lookup(&self, off: u32, len: u32) -> Vec<(u32, P)> {
        let end = off.saturating_add(len);
        let after = self.after(off);
        let mut out = Vec::new();
        if let Some((s, e)) = after.checked_sub(1).map(|i| &self.entries[i]) {
            let e_end = (s + e.len()).min(end);
            if e_end > off {
                out.push((off, e.slice(off - s, e_end - s)));
            }
        }
        for (s, e) in self.entries[after..].iter().take_while(|&&(s, _)| s < end) {
            let e_end = s + e.len();
            out.push((*s, e.slice(0, e_end.min(end) - s)));
        }
        out
    }

    /// Whether `[off, off+len)` is fully covered by live ranges. Bytes past
    /// `u32::MAX` are never covered.
    pub fn covers(&self, off: u32, len: u32) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = off.checked_add(len) else {
            return false;
        };
        let after = self.after(off);
        let mut cursor = match after.checked_sub(1).map(|i| &self.entries[i]) {
            Some((s, e)) => off.max(s + e.len()),
            None => off,
        };
        for (s, e) in &self.entries[after..] {
            if cursor >= end || *s > cursor {
                break;
            }
            cursor = cursor.max(s + e.len());
        }
        cursor >= end
    }

    /// End of the live range holding byte `off`, if one does.
    pub(crate) fn range_end_at(&self, off: u32) -> Option<u32> {
        let (s, e) = &self.entries[self.after(off).checked_sub(1)?];
        let end = s + e.len();
        (end > off).then_some(end)
    }

    /// Consumes the index, yielding sorted `(offset, payload)` ranges.
    pub fn into_sorted_ranges(self) -> Vec<(u32, P)> {
        self.entries
    }

    /// Iterates live ranges in offset order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &P)> {
        self.entries.iter().map(|(o, p)| (*o, p))
    }
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
    blocks: FastMap<K, BlockIndex<P>>,
    mode: MergeMode,
}

impl<K: Hash + Eq + Clone, P: Payload> TwoLevelIndex<K, P> {
    /// Empty index with the given merge mode.
    pub fn new(mode: MergeMode) -> TwoLevelIndex<K, P> {
        TwoLevelIndex {
            blocks: FastMap::default(),
            mode,
        }
    }

    /// The merge mode this index applies.
    pub(crate) fn mode(&self) -> MergeMode {
        self.mode
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

    /// Whether no byte of a range under `key` is present.
    pub fn definitely_absent(&self, key: &K, off: u32, len: u32) -> bool {
        self.blocks
            .get(key)
            .map(|b| b.definitely_absent(off, len))
            .unwrap_or(true)
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

    /// Payload bytes across all blocks' live ranges.
    pub(crate) fn held_bytes(&self) -> u64 {
        self.blocks
            .values()
            .flat_map(BlockIndex::iter)
            .map(|(_, p)| p.len() as u64)
            .sum()
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

    /// The paper's record granularity.
    const SUB_GRAIN: u32 = 4096;

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
    fn absent_answers_exactly_inside_a_touched_chunk() {
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        b.insert(0, Ghost(100), MergeMode::Overwrite);
        b.insert(300, Ghost(100), MergeMode::Overwrite);
        assert!(!b.definitely_absent(0, 10));
        assert!(!b.definitely_absent(50, 300)); // spans the gap
        assert!(b.definitely_absent(100, 200)); // the gap, in the same 4 KiB
        assert!(b.definitely_absent(200, 10));
        assert!(!b.definitely_absent(250, 51)); // one byte into the next range
        assert!(b.definitely_absent(1 << 20, 10));
        assert!(b.definitely_absent(50, 0));
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

    /// A query running past `u32::MAX` answers for its part below it, and
    /// the bytes past it are never covered.
    #[test]
    fn queries_past_u32_max_answer_for_their_part_below_it() {
        let mut b: BlockIndex<Ghost> = BlockIndex::new();
        b.insert(0, Ghost(16), MergeMode::Overwrite);
        assert_eq!(b.lookup(5, u32::MAX), vec![(5, Ghost(11))]);
        assert!(!b.covers(5, u32::MAX));

        let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Xor);
        idx.insert(7, u32::MAX - 16, Ghost(16));
        assert!(!idx.definitely_absent(&7, u32::MAX - 8, 16));
        assert_eq!(
            idx.lookup(&7, u32::MAX - 8, 16),
            vec![(u32::MAX - 8, Ghost(8))]
        );
        assert!(!idx.covers(&7, u32::MAX - 8, 16));
        assert!(idx.covers(&7, u32::MAX - 8, 8));
    }

    /// The block map is seedless: two indexes built by one insert sequence
    /// list and drain their blocks in one order.
    #[test]
    fn equal_insert_sequences_give_equal_block_orders() {
        let build = || {
            let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Overwrite);
            for k in 0..64u64 {
                idx.insert(k * 977 % 1000, (k % 8) as u32 * 8192, Ghost(4096));
            }
            idx
        };
        let (mut a, mut b) = (build(), build());
        assert!(a.block_keys().eq(b.block_keys()));
        assert_eq!(a.drain_all(), b.drain_all());
    }

    impl<P: Payload> BlockIndex<P> {
        /// The insert the splice replaced, kept as the reference: collect
        /// every colliding entry by a linear scan, sweep their boundary
        /// points and re-sort.
        fn reference_insert(&mut self, off: u32, payload: P, mode: MergeMode) {
            let len = payload.len();
            assert!(len > 0, "empty payload");
            let end = off.checked_add(len).expect("offset overflow");

            let (collected, mut kept): (Vec<_>, Vec<_>) = std::mem::take(&mut self.entries)
                .into_iter()
                .partition(|(s, e)| *s <= end && s + e.len() >= off);

            kept.push(Self::sweep_merge(off, payload, &collected, mode));
            kept.sort_by_key(|&(s, _)| s);
            self.entries = kept;
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
    /// equal entries and bytes after every insert, in both merge modes,
    /// through a fixed prefix of the edge cases, a stream that fills a
    /// block with the most ranges it can hold, and then seeded churn;
    /// `definitely_absent` and `covers` are checked on random queries
    /// against [`BlockIndex::lookup`]. Lookup pieces and entry slices held
    /// across an insert, in-place folds included, keep their bytes.
    #[test]
    fn insert_matches_reference_sweep() {
        const BLOCK: u32 = 512 << 10;
        // Queries reach this far past the block's end.
        const PAST: u32 = 256 << 10;
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
            (PAST - 100, 101), // crosses a 4 KiB boundary by one byte
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

        // The longest vector a block can hold: every other 4 KiB slot of a
        // 4 MiB block, then the gaps in seeded order, each absorbing both
        // of its neighbours; a shift moves up to 511 entries.
        const SLOTS: u32 = 1024;
        let mut gaps: Vec<u32> = (1..SLOTS).step_by(2).collect();
        let mut x = 7;
        for i in (1..gaps.len()).rev() {
            gaps.swap(i, lcg(&mut x) as usize % (i + 1));
        }
        for mode in [MergeMode::Overwrite, MergeMode::Xor] {
            let (mut fast, mut slow) = (BlockIndex::new(), BlockIndex::new());
            let slots = (0..SLOTS).step_by(2).chain(gaps.iter().copied());
            for (i, slot) in slots.enumerate() {
                let p = random_data(&mut x, SUB_GRAIN);
                fast.insert(slot * SUB_GRAIN, p.clone(), mode);
                slow.reference_insert(slot * SUB_GRAIN, p, mode);
                assert_same(&fast, &slow, &format!("{mode:?} maximal {i}"));
                if i + 1 == SLOTS as usize / 2 {
                    assert_eq!(fast.range_count(), SLOTS as usize / 2, "{mode:?}");
                }
            }
            assert_eq!(fast.range_count(), 1, "{mode:?}");
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
                        let q_off = (lcg(&mut x) % (BLOCK + PAST) as u64) as u32;
                        let q_len = (lcg(&mut x) % (1 << (lcg(&mut x) % 17))) as u32;
                        let absent = fast.definitely_absent(q_off, q_len);
                        assert_eq!(absent, fast.lookup(q_off, q_len).is_empty(), "{what}");
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
