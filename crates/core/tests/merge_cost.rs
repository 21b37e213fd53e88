//! The two-level index's merge cost as an exact byte count. A counting
//! global allocator tallies the bytes the test thread allocates (a realloc
//! counts at its new size) while a block index absorbs three streams of real
//! 4 KiB records in each merge mode:
//!
//! * 256 ascending adjacent records, which grow one range to 1 MiB;
//! * 1 000 seeded records inside that range, which fold into it;
//! * 512 records that each overlap the range's last 2 KiB, which grow it
//!   to 2 MiB (in XOR mode the overlap is folded into a copy, and the
//!   range's head must still grow in place).
//!
//! Growing a range in place costs amortised O(record) and folding costs
//! nothing per byte, so every stream stays far below copying the merged
//! range on every insert (hundreds of KiB per record).
//!
//! Allocations are counted per thread, so the harness's other threads do
//! not leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tsue::index::{BlockIndex, MergeMode};
use tsue::payload::{Data, Payload};

struct Counting;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const RECORD: u32 = 4096;
const RANGE: u32 = 1 << 20;
/// Records that overlap the range's end by half a record.
const OVERLAPPING: u32 = 512;
const GROWN: u32 = RANGE + OVERLAPPING * RECORD / 2;
/// Bytes a single insert may allocate, on average over a stream.
const BUDGET: u64 = 12 << 10;

fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

fn record(x: &mut u64) -> Vec<u8> {
    (0..RECORD).map(|_| lcg(x) as u8).collect()
}

/// Inserts `records` into `index` and returns the bytes allocated per
/// insert; the records are built before counting starts.
fn bytes_per_insert(
    index: &mut BlockIndex<Data>,
    model: &mut [u8],
    records: Vec<(u32, Vec<u8>)>,
    mode: MergeMode,
) -> f64 {
    let n = records.len() as f64;
    for (off, bytes) in &records {
        let window = &mut model[*off as usize..(*off + RECORD) as usize];
        match mode {
            MergeMode::Overwrite => window.copy_from_slice(bytes),
            MergeMode::Xor => window.iter_mut().zip(bytes).for_each(|(m, b)| *m ^= b),
        }
    }
    let payloads: Vec<(u32, Data)> = records
        .into_iter()
        .map(|(off, bytes)| (off, Data::from_vec(bytes)))
        .collect();
    let before = BYTES.with(Cell::get);
    for (off, payload) in payloads {
        index.insert(off, payload, mode);
    }
    (BYTES.with(Cell::get) - before) as f64 / n
}

#[test]
fn merges_allocate_amortised_record_bytes() {
    for mode in [MergeMode::Overwrite, MergeMode::Xor] {
        let mut x = 7;
        let mut index = BlockIndex::new();
        let mut model = vec![0u8; GROWN as usize];

        let adjacent = (0..RANGE / RECORD)
            .map(|i| (i * RECORD, record(&mut x)))
            .collect();
        let grow = bytes_per_insert(&mut index, &mut model, adjacent, mode);

        let inside = (0..1_000)
            .map(|_| {
                let off = (lcg(&mut x) % (RANGE - RECORD + 1) as u64) as u32;
                (off, record(&mut x))
            })
            .collect();
        let fold = bytes_per_insert(&mut index, &mut model, inside, mode);

        let overlapping = (0..OVERLAPPING)
            .map(|i| (RANGE - RECORD / 2 + i * RECORD / 2, record(&mut x)))
            .collect();
        let extend = bytes_per_insert(&mut index, &mut model, overlapping, mode);

        println!(
            "{mode:?}: KiB per insert {:.1} adjacent, {:.2} inside, {:.1} overlapping",
            grow / 1024.0,
            fold / 1024.0,
            extend / 1024.0
        );
        assert!(
            grow <= BUDGET as f64,
            "{mode:?} adjacent: {grow} B per insert"
        );
        assert!(
            fold <= BUDGET as f64,
            "{mode:?} inside: {fold} B per insert"
        );
        assert!(
            extend <= BUDGET as f64,
            "{mode:?} overlapping: {extend} B per insert"
        );

        // Xor mode starts from zeros, so both models hold the merged bytes.
        let ranges = index.into_sorted_ranges();
        assert_eq!(ranges.len(), 1, "{mode:?}");
        assert_eq!(ranges[0].0, 0, "{mode:?}");
        assert_eq!(ranges[0].1.len(), GROWN, "{mode:?}");
        assert!(ranges[0].1.as_slice() == model, "{mode:?}: bytes differ");
    }
}
