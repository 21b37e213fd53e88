//! One isolated drive per layer: each calls the layer's public function in
//! a loop on inputs shaped like a workload's, with `black_box` on inputs
//! and results, and reports a per-call cost or a rate from the bytes and
//! calls it actually made. A drive is a closure that runs one batch and
//! emits `(metric name, value)` pairs; the caller repeats it and takes
//! medians. Isolated calls run warmer than the same calls inside a replay,
//! so these numbers are lower bounds on the in-situ cost.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rscode::ReedSolomon;
use simdes::stats::Histogram;
use simdes::{Resource, Sim};
use simdisk::{Disk, IoOp, Pattern, Ssd, SsdConfig};
use simnet::{NetConfig, Network, Topology};
use traces::{AliasZipf, WorkloadGen};
use tsue::index::{MergeMode, TwoLevelIndex};
use tsue::payload::Ghost;
use tsue::pool::{AppendOutcome, LogPool, PoolConfig};
use workload::OpenLoopSpec;

use super::replay::Family;

/// Receives one `(metric name, value)` pair from a drive's batch.
pub type Emit<'a> = &'a mut dyn FnMut(&'static str, f64);
/// One layer's drive: each call runs one batch.
pub type Drive = Box<dyn FnMut(Emit)>;

const GIB: f64 = (1u64 << 30) as f64;

/// Nanoseconds per call of `body`, over `n` calls.
fn ns_per_call(n: usize, mut body: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        body(i);
    }
    t0.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// A cheap deterministic stream of well-spread indices.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// `len` well-mixed bytes: table-driven kernels must not see one value.
fn noise(len: usize, mut x: u64) -> Vec<u8> {
    (0..len).map(|_| (lcg(&mut x) >> 11) as u8).collect()
}

/// Every layer drive, in the order of the README's per-layer table.
pub fn drives(seed: u64) -> Vec<(&'static str, Drive)> {
    vec![
        ("drive.gf256", Box::new(gf256)),
        ("drive.rscode", Box::new(rscode)),
        ("drive.tsue.index", tsue_index(seed)),
        ("drive.tsue.pool", tsue_pool(seed)),
        ("drive.simdes", Box::new(simdes)),
        ("drive.simdisk", simdisk(seed)),
        ("drive.simnet", Box::new(simnet)),
        ("drive.traces", traces(seed)),
        ("drive.workload", workload(seed)),
        (
            "drive.ecfs.cluster",
            Box::new(|emit: Emit| {
                emit(
                    "ecfs.cluster.new_ms",
                    super::replay::cluster_new_s("TSUE") * 1e3,
                )
            }),
        ),
    ]
}

/// `gf256::slice::{mul_acc, xor}`: GiB/s of source bytes.
fn gf256(emit: Emit) {
    let gib_s = |len: usize, ns: f64| len as f64 / GIB / (ns / 1e9);
    for (name, len, n) in [
        ("gf256.mul_acc_gib_s", 64 << 10, 512),
        ("gf256.mul_acc_4k_gib_s", 4 << 10, 8192),
    ] {
        let (src, mut dst) = (noise(len, 1), noise(len, 2));
        let ns = ns_per_call(n, |i| {
            gf256::slice::mul_acc(black_box(&mut dst), black_box(&src), 0x1d ^ i as u8 | 2)
        });
        emit(name, gib_s(len, ns));
    }
    let len = 64 << 10;
    let (src, mut dst) = (noise(len, 3), noise(len, 4));
    let ns = ns_per_call(8192, |_| {
        gf256::slice::xor(black_box(&mut dst), black_box(&src))
    });
    emit("gf256.xor_gib_s", gib_s(len, ns));
}

/// `ReedSolomon::{encode_shards, verify}` over 6 × 64 KiB of data (GiB/s of
/// data bytes) and `delta::parity_delta` over the 4 KiB it actually touches.
fn rscode(emit: Emit) {
    let code = super::code();
    let rs = ReedSolomon::new(code);
    let block = 64 << 10;
    let mut shards: Vec<Vec<u8>> = (0..code.total())
        .map(|i| noise(block, i as u64 + 5))
        .collect();
    let data_gib = (code.k() * block) as f64 / GIB;
    let ns = ns_per_call(32, |_| {
        rs.encode_shards(black_box(&mut shards)).expect("encode")
    });
    emit("rscode.encode_6_3_gib_s", data_gib / (ns / 1e9));
    let ns = ns_per_call(32, |_| {
        assert!(black_box(rs.verify(black_box(&shards)).expect("verify")));
    });
    emit("rscode.verify_6_3_gib_s", data_gib / (ns / 1e9));
    let (delta, mut acc) = (noise(4096, 20), noise(4096, 21));
    let ns = ns_per_call(8192, |i| {
        rscode::delta::parity_delta(&rs, i % 3, i % 6, black_box(&delta), black_box(&mut acc))
    });
    emit("rscode.parity_delta_4k_ns", ns);
}

/// The `(block id, offset)` stream of `engine-small`: hot 4 KiB updates.
fn small_update_stream(seed: u64, n: usize) -> Vec<(u64, u32)> {
    let volume = 96 << 20;
    let mut params = Family::Ten.params(volume);
    params.size_dist = vec![(4096, 1.0)];
    WorkloadGen::new(params, seed)
        .take(n)
        .map(|op| (op.offset >> 20, (op.offset & ((1 << 20) - 1)) as u32))
        .collect()
}

/// `TwoLevelIndex::{insert, lookup, definitely_absent}` on the
/// `engine-small` stream, cleared every 256 records as a 1 MiB log unit of
/// 4 KiB records is.
fn tsue_index(seed: u64) -> Drive {
    const UNIT: usize = 256;
    let stream = small_update_stream(seed, 256 * UNIT);
    Box::new(move |emit: Emit| {
        let mut idx: TwoLevelIndex<u64, Ghost> = TwoLevelIndex::new(MergeMode::Overwrite);
        let mut ranges = 0usize;
        let t0 = Instant::now();
        for unit in stream.chunks(UNIT) {
            for &(key, off) in unit {
                idx.insert(black_box(key), black_box(off), Ghost(4096));
            }
            ranges += idx.range_count();
            idx.clear();
        }
        let insert_ns = t0.elapsed().as_secs_f64() * 1e9 / stream.len() as f64;
        emit("tsue.index.insert_ns", insert_ns);
        emit(
            "tsue.index.merge_ratio",
            stream.len() as f64 / ranges as f64,
        );

        let unit = &stream[..UNIT];
        for &(key, off) in unit {
            idx.insert(key, off, Ghost(4096));
        }
        let mut found = 0usize;
        let ns = ns_per_call(64 * UNIT, |i| {
            let (key, off) = unit[i % UNIT];
            found += black_box(idx.lookup(black_box(&key), black_box(off), 4096)).len();
        });
        assert!(found >= 64 * UNIT, "every inserted range must be found");
        emit("tsue.index.lookup_hit_ns", ns);
        // Same keys, offsets one past the block: present block, absent range.
        let mut absent = 0usize;
        let ns = ns_per_call(64 * UNIT, |i| {
            let (key, off) = unit[i % UNIT];
            absent +=
                black_box(idx.definitely_absent(black_box(&key), black_box(off) + (1 << 20), 4096))
                    as usize;
        });
        assert_eq!(absent, 64 * UNIT, "ranges beyond the block are absent");
        emit("tsue.index.absent_ns", ns);
    })
}

/// `LogPool::append` → `take_recyclable` → `finish_recycle` on the
/// `engine-small` stream with the engine's pool shape (1 MiB units, 2–4).
fn tsue_pool(seed: u64) -> Drive {
    let stream = small_update_stream(seed ^ 0x706f_6f6c, 64 << 10);
    Box::new(move |emit: Emit| {
        let mut pool: LogPool<u64, Ghost> = LogPool::new(PoolConfig {
            unit_bytes: 1 << 20,
            min_units: 2,
            max_units: 4,
            mode: MergeMode::Overwrite,
        });
        let (mut cycle_s, mut cycles) = (0.0, 0u64);
        let t0 = Instant::now();
        for (i, &(key, off)) in stream.iter().enumerate() {
            let outcome = pool.append(black_box(key), black_box(off), Ghost(4096), i as u64);
            assert_ne!(
                outcome,
                AppendOutcome::Stalled,
                "sealed units are recycled at once"
            );
            if let AppendOutcome::AppendedAndSealed(_) = outcome {
                let c0 = Instant::now();
                let taken = pool.take_recyclable().expect("a unit was just sealed");
                pool.finish_recycle(black_box(&taken).id);
                cycle_s += c0.elapsed().as_secs_f64();
                cycles += 1;
            }
        }
        let total_s = t0.elapsed().as_secs_f64();
        emit(
            "tsue.pool.append_ns",
            (total_s - cycle_s) * 1e9 / stream.len() as f64,
        );
        emit("tsue.pool.cycle_ns", cycle_s * 1e9 / cycles as f64);
    })
}

/// `Sim::schedule_call` / `Sim::schedule` + `run`, `Resource::reserve`,
/// `Histogram::record`.
fn simdes(emit: Emit) {
    const N: usize = 200_000;
    fn tick(_: &mut Sim<u64>, world: &mut u64) {
        *world += 1;
    }
    let mut world = 0u64;
    let mut sim: Sim<u64> = Sim::new();
    let mut x = 1u64;
    let t0 = Instant::now();
    for _ in 0..N {
        sim.schedule_call(black_box(lcg(&mut x) % 1_000_000), tick);
    }
    sim.run(&mut world);
    emit(
        "simdes.event_ns",
        t0.elapsed().as_secs_f64() * 1e9 / N as f64,
    );
    let t0 = Instant::now();
    for i in 0..N as u64 {
        sim.schedule(black_box(lcg(&mut x) % 1_000_000), move |_, w: &mut u64| {
            *w += i & 1
        });
    }
    sim.run(&mut world);
    emit(
        "simdes.event_boxed_ns",
        t0.elapsed().as_secs_f64() * 1e9 / N as f64,
    );
    assert!(black_box(world) >= N as u64 && sim.events_executed() == 2 * N as u64);

    // A 4-server station at ~90 % load, as a device queue sees it.
    let mut station = Resource::new(4);
    let mut now = 0u64;
    let mut last = 0u64;
    let ns = ns_per_call(N, |_| {
        now += 28;
        last = station.reserve(black_box(now), 70 + lcg(&mut x) % 60);
    });
    assert!(black_box(last) > 0);
    emit("simdes.reserve_ns", ns);

    let mut hist = Histogram::new();
    let ns = ns_per_call(N, |_| hist.record(black_box(lcg(&mut x) % 10_000_000)));
    assert_eq!(black_box(&hist).count(), N as u64);
    emit("simdes.hist_record_ns", ns);
}

/// `Disk::submit` on one default `SsdConfig` device: random 4 KiB writes on
/// a fresh device, the same once garbage collection has started, and
/// sequential 256 KiB writes (one erase block, as a log append is).
fn simdisk(seed: u64) -> Drive {
    const FRESH: usize = 200_000;
    const GC: usize = 2_000;
    Box::new(move |emit: Emit| {
        let cfg = SsdConfig::default();
        let pages = cfg.capacity / cfg.page_size;
        let t0 = Instant::now();
        let mut disk = Disk::Ssd(Ssd::new(black_box(cfg.clone())));
        emit("simdisk.ssd_new_ms", t0.elapsed().as_secs_f64() * 1e3);

        let mut x = seed | 1;
        let mut now = 0u64;
        let mut write_4k = |disk: &mut Disk| {
            let op = IoOp::write(lcg(&mut x) % pages * cfg.page_size, 4096, Pattern::Random);
            now = disk.submit(black_box(now), black_box(op));
        };
        let fresh = ns_per_call(FRESH, |_| write_4k(&mut disk));
        assert_eq!(disk.stats().erases, 0, "a fresh device does not collect");
        emit("simdisk.submit_fresh_ns", fresh);
        while disk.stats().erases == 0 {
            write_4k(&mut disk);
        }
        let gc = ns_per_call(GC, |_| write_4k(&mut disk));
        emit("simdisk.submit_gc_ns", gc);
        emit("simdisk.gc_cost_ratio", gc / fresh);

        let mut disk = Disk::Ssd(Ssd::new(cfg.clone()));
        let block = cfg.page_size * cfg.pages_per_block as u64;
        let blocks = cfg.capacity / block;
        let mut now = 0u64;
        let seq = ns_per_call(blocks as usize / 2, |i| {
            let op = IoOp::write(i as u64 * block, block, Pattern::Sequential);
            now = disk.submit(black_box(now), black_box(op));
        });
        assert!(black_box(now) > 0);
        emit("simdisk.submit_seq_ns", seq);
    })
}

/// `Network::send` of 4 KiB between 32 endpoints, flat and over 4 racks at
/// 2:1 oversubscription.
fn simnet(emit: Emit) {
    const N: usize = 200_000;
    const ENDPOINTS: usize = 32;
    let racked = Topology::racked((0..ENDPOINTS).map(|e| e % 4).collect(), 2.0);
    for (name, cfg) in [
        ("simnet.send_ns", NetConfig::ethernet_25g(ENDPOINTS)),
        (
            "simnet.send_racked_ns",
            NetConfig::ethernet_25g(ENDPOINTS).with_topology(racked),
        ),
    ] {
        let mut net = Network::new(cfg);
        let mut x = 7u64;
        let mut now = 0u64;
        let mut done = 0u64;
        let ns = ns_per_call(N, |_| {
            let src = lcg(&mut x) as usize % ENDPOINTS;
            let dst = (src + 1 + lcg(&mut x) as usize % (ENDPOINTS - 1)) % ENDPOINTS;
            now += 1_500;
            done = net.send(black_box(now), src, dst, 4096);
        });
        assert!(black_box(done) > 0 && net.traffic().total_messages() == N as u64);
        emit(name, ns);
    }
}

/// `WorkloadGen::take_ops` (Ali-Cloud, 128 MiB volume) and `AliasZipf`.
fn traces(seed: u64) -> Drive {
    const N: usize = 200_000;
    Box::new(move |emit: Emit| {
        let mut gen = WorkloadGen::new(Family::Ali.params(128 << 20), seed);
        let t0 = Instant::now();
        let ops = gen.take_ops(black_box(N));
        emit(
            "traces.gen_op_ns",
            t0.elapsed().as_secs_f64() * 1e9 / N as f64,
        );
        assert_eq!(black_box(ops).len(), N);

        let zipf = AliasZipf::new(1 << 20, 0.9);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sum = 0u64;
        let ns = ns_per_call(N, |_| sum += zipf.sample(&mut rng));
        assert!(black_box(sum) > 0);
        emit("traces.alias_zipf_ns", ns);
    })
}

/// `OpenLoopSpec::source(..).next()`: the lazy arrival stream of
/// `replay-fault` (64 clients, Poisson).
fn workload(seed: u64) -> Drive {
    const N: u64 = 200_000;
    Box::new(move |emit: Emit| {
        let params = Family::Ali.params(32 << 20);
        let mut source = OpenLoopSpec::poisson(24_000.0)
            .with_window(4)
            .source(&params, 64, N, seed);
        let mut last_at = 0u64;
        let ns = ns_per_call(N as usize, |_| {
            last_at = black_box(source.next()).expect("N arrivals").op.at_ns;
        });
        assert!(black_box(last_at) > 0);
        emit("workload.arrival_ns", ns);
    })
}
