//! Concurrency demo: hammer one TSUE engine with parallel writer threads
//! while its recycler threads drain the three-layer pipeline, then prove
//! byte-exact parity consistency and that, once flushed, only the DataLog
//! still holds bytes (its read cache).
//!
//! ```text
//! cargo run --release -p tsue-examples --example concurrent_logpool [writers] [ops]
//! ```

use std::sync::Arc;
use std::time::Instant;

use rscode::CodeParams;
use tsue::engine::{EngineConfig, TsueEngine};

fn main() {
    let mut args = std::env::args().skip(1);
    let writers: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);
    let ops: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5_000);

    let engine = Arc::new(TsueEngine::new(EngineConfig {
        code: CodeParams::new(4, 2).unwrap(),
        block_len: 256 << 10,
        stripes: 8,
        unit_bytes: 128 << 10,
        max_units: 4,
        pools_per_layer: 4,
        recycler_threads: 2,
    }));

    println!("{writers} writers x {ops} updates, 2 recyclers, RS(4,2), 8 stripes");
    let start = Instant::now();
    let handles: Vec<_> = (0..writers)
        .map(|w| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut x = 0x9e3779b97f4a7c15u64 ^ w as u64;
                for i in 0..ops {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(w as u64 + 1);
                    let stripe = (x >> 7) % 8;
                    // Each writer owns one block index: no write-write races
                    // on identical ranges (TSUE orders per block).
                    let block = (w % 4) as u16;
                    let off = ((x >> 23) % ((256 << 10) - 4096)) as u32;
                    let len = 64 + (x >> 51) as usize % 2048;
                    let byte = (i % 251) as u8;
                    engine.update(stripe, block, off, &vec![byte; len]);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let append_done = start.elapsed();
    let total = writers * ops;
    println!(
        "front end: {} updates acked in {:.2?} ({:.0} updates/s)",
        total,
        append_done,
        total as f64 / append_done.as_secs_f64()
    );

    engine.flush();
    println!(
        "back end : pipeline drained in {:.2?} total",
        start.elapsed()
    );

    let stats = engine.stats();
    println!(
        "protocol : {} wakes ({} seals + {} recycled units: data {} / delta {} / parity {}), \
         {} waits ({} timed out), {} inline recycles, {} parity bytes multiplied, \
         {} shared",
        stats.wakes,
        stats.sealed,
        stats.recycled.iter().sum::<u64>(),
        stats.recycled[0],
        stats.recycled[1],
        stats.recycled[2],
        stats.waits,
        stats.timed_out_waits,
        stats.inline_recycles,
        stats.parity_mul_bytes,
        stats.parity_shared_bytes
    );

    let [data, delta, parity] = stats.log_bytes;
    println!("log held : data {data} B (read cache) / delta {delta} B / parity {parity} B");
    assert_eq!(
        (delta, parity),
        (0, 0),
        "recycled delta and parity units must hold nothing"
    );

    assert!(
        engine.verify_parity(),
        "parity mismatch after concurrent churn"
    );
    println!(
        "verified : all 8 stripes' parity == fresh re-encode ({} ranges applied)",
        engine.applied_ranges()
    );
}
