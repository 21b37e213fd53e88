//! A real, multi-threaded, single-node TSUE engine over in-memory stripes.
//!
//! This is the byte-exact realisation of the paper's two-stage pipeline:
//!
//! * **front end** — [`TsueEngine::update`] appends the new bytes to the
//!   DataLog and returns (the paper's "ack after data-log append");
//! * **back end** — recycler threads drain DataLog units into data blocks
//!   (computing deltas under the block lock), forward deltas to the
//!   DeltaLog, combine them per stripe into parity deltas (Eq. 5), forward
//!   those to the ParityLog, and finally XOR them into parity blocks.
//!
//! The codec's generator has ones in its first row and first column, so the
//! DeltaLog recycle multiplies only where a coefficient is not 1: a union
//! range spanned by one delta forwards that delta itself, a shared view, as
//! the parity delta of every coefficient-1 row (all `m` rows for data block
//! 0), and only the other rows go through the multiply kernel.
//!
//! The engine exists to *prove the scheme correct under concurrency*: after
//! [`TsueEngine::flush`], every stripe's parity equals a fresh re-encode of
//! its data blocks, no matter how many writer and recycler threads raced.
//! The cluster simulator reuses the same pool/index types with ghost
//! payloads for performance modelling; this engine runs them with real
//! bytes on real threads, locking through the `parking_lot` API.

use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, RwLock};
use rscode::{delta::data_delta, CodeParams, ReedSolomon};

use crate::index::MergeMode;
use crate::layers::{
    group_delta_jobs, union_ranges, BlockId, Layer, LogPoolSet, ParityKey, StripeBlock,
};
use crate::payload::{Data, Payload};
use crate::pool::{AppendOutcome, PoolConfig, TakenUnit};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// RS(k, m) shape.
    pub code: CodeParams,
    /// Bytes per block.
    pub block_len: u32,
    /// Number of stripes managed.
    pub stripes: u64,
    /// Log-unit size for all three layers (small values exercise sealing).
    pub unit_bytes: u64,
    /// Unit quota per pool.
    pub max_units: usize,
    /// Pools per layer.
    pub pools_per_layer: usize,
    /// Background recycler threads.
    pub recycler_threads: usize,
}

/// A rejected engine configuration, with the reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfigError(pub String);

impl std::fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid engine configuration: {}", self.0)
    }
}

impl std::error::Error for EngineConfigError {}

impl EngineConfig {
    /// A small configuration suitable for tests and examples.
    pub fn small(code: CodeParams) -> EngineConfig {
        EngineConfig {
            code,
            block_len: 64 << 10,
            stripes: 4,
            unit_bytes: 64 << 10,
            max_units: 4,
            pools_per_layer: 2,
            recycler_threads: 2,
        }
    }

    /// A builder starting from [`Self::small`]'s defaults.
    ///
    /// ```
    /// use rscode::CodeParams;
    /// use tsue::engine::EngineConfig;
    ///
    /// let cfg = EngineConfig::builder(CodeParams::new(4, 2).unwrap())
    ///     .stripes(8)
    ///     .recycler_threads(3)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(cfg.recycler_threads, 3);
    ///
    /// // A pipeline with no recyclers would never drain:
    /// assert!(EngineConfig::builder(CodeParams::new(4, 2).unwrap())
    ///     .recycler_threads(0)
    ///     .build()
    ///     .is_err());
    /// ```
    pub fn builder(code: CodeParams) -> EngineConfigBuilder {
        EngineConfigBuilder {
            inner: EngineConfig::small(code),
        }
    }

    /// Validates cross-field invariants.
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        if self.recycler_threads == 0 {
            return Err(EngineConfigError(
                "recycler_threads must be at least 1 (the back end would never drain)".into(),
            ));
        }
        if self.pools_per_layer == 0 {
            return Err(EngineConfigError(
                "pools_per_layer must be at least 1".into(),
            ));
        }
        if self.max_units < 2 {
            return Err(EngineConfigError(
                "max_units must be at least 2 (one appending, one recycling)".into(),
            ));
        }
        if self.stripes == 0 {
            return Err(EngineConfigError("stripes must be at least 1".into()));
        }
        if self.block_len == 0 {
            return Err(EngineConfigError("block_len must be positive".into()));
        }
        if self.unit_bytes < 1024 {
            return Err(EngineConfigError(format!(
                "unit_bytes = {} is below the 1 KiB floor",
                self.unit_bytes
            )));
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`] (see [`EngineConfig::builder`]).
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    inner: EngineConfig,
}

impl EngineConfigBuilder {
    /// Bytes per block.
    pub fn block_len(mut self, len: u32) -> Self {
        self.inner.block_len = len;
        self
    }

    /// Number of stripes managed.
    pub fn stripes(mut self, stripes: u64) -> Self {
        self.inner.stripes = stripes;
        self
    }

    /// Log-unit size for all three layers.
    pub fn unit_bytes(mut self, bytes: u64) -> Self {
        self.inner.unit_bytes = bytes;
        self
    }

    /// Unit quota per pool.
    pub fn max_units(mut self, units: usize) -> Self {
        self.inner.max_units = units;
        self
    }

    /// Pools per layer.
    pub fn pools_per_layer(mut self, pools: usize) -> Self {
        self.inner.pools_per_layer = pools;
        self
    }

    /// Background recycler threads.
    pub fn recycler_threads(mut self, threads: usize) -> Self {
        self.inner.recycler_threads = threads;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig, EngineConfigError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

struct Shared {
    cfg: EngineConfig,
    rs: ReedSolomon,
    /// `coeffs[j]` = ∂(0..m, j): data block `j`'s coefficient into each
    /// parity, built once (the `cs` of every parity-delta kernel call).
    coeffs: Vec<Vec<u8>>,
    /// All blocks: stripe-major, `k` data then `m` parity per stripe.
    blocks: Vec<RwLock<Vec<u8>>>,
    data_log: Mutex<LogPoolSet<BlockId, Data>>,
    delta_log: Mutex<LogPoolSet<StripeBlock, Data>>,
    parity_log: Mutex<LogPoolSet<ParityKey, Data>>,
    /// Signalled by [`Shared::wake`] when an append seals a unit or a
    /// recycle finishes, the only events that give a recycler or a stalled
    /// appender something to do; a plain append wakes nobody.
    work_cv: Condvar,
    work_mx: Mutex<()>,
    /// Wake-ups sent so far, bumped under `work_mx`: a waiter that read it
    /// before its failed take waits only while it is unchanged, so a wake
    /// between the take and the wait is never lost.
    wakes: AtomicU64,
    /// The other [`EngineStats`] counters.
    sealed: AtomicU64,
    waits: AtomicU64,
    timed_out_waits: AtomicU64,
    inline_recycles: AtomicU64,
    recycled: [AtomicU64; 3],
    parity_mul_bytes: AtomicU64,
    parity_shared_bytes: AtomicU64,
    /// Units currently being recycled across all layers.
    in_flight: AtomicU64,
    shutdown: AtomicBool,
    /// Updates acknowledged (appended to the data log).
    acked: AtomicU64,
    /// Updates fully folded into data blocks.
    applied_ranges: AtomicU64,
}

impl Shared {
    fn block_slot(&self, stripe: u64, idx: usize) -> usize {
        let per = self.cfg.code.total();
        stripe as usize * per + idx
    }

    fn data_block_id(&self, stripe: u64, block_idx: u16) -> BlockId {
        stripe * self.cfg.code.k() as u64 + block_idx as u64
    }

    fn id_to_stripe_block(&self, id: BlockId) -> (u64, u16) {
        let k = self.cfg.code.k() as u64;
        (id / k, (id % k) as u16)
    }

    /// Signals that a unit was sealed or recycled: bumps the wake counter
    /// and notifies every waiter, under `work_mx`.
    fn wake(&self) {
        let _guard = self.work_mx.lock();
        self.wakes.fetch_add(1, Ordering::SeqCst);
        self.work_cv.notify_all();
    }

    /// Waits for a wake after `seen`, the wake counter read before the
    /// failed take; the 1 ms timeout is a safety net, not the protocol.
    fn wait(&self, seen: u64) {
        let mut guard = self.work_mx.lock();
        if self.wakes.load(Ordering::SeqCst) != seen {
            return;
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        let waited = self
            .work_cv
            .wait_for(&mut guard, std::time::Duration::from_millis(1));
        if waited.timed_out() {
            self.timed_out_waits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Processes one recyclable unit from any layer; returns false if there
    /// was nothing to do. Terminal layers first so stalled upper layers
    /// drain fastest.
    fn recycle_once(&self) -> bool {
        self.recycle_parity_once() || self.recycle_delta_once() || self.recycle_data_once()
    }

    /// The lifecycle every layer shares: take a unit with `take` under the
    /// layer lock, fold its contents with `fold` with the lock released,
    /// then hand the unit back and wake waiters. Returns false if there was
    /// nothing to take.
    fn recycle_unit<K, T, F>(
        &self,
        layer: Layer,
        log: &Mutex<LogPoolSet<K, Data>>,
        take: T,
        fold: F,
    ) -> bool
    where
        K: Hash + Eq + Ord + Clone,
        T: FnOnce(&mut LogPoolSet<K, Data>) -> Option<(usize, TakenUnit<K, Data>)>,
        F: FnOnce(Vec<(K, Vec<(u32, Data)>)>),
    {
        let taken = take(&mut log.lock());
        let Some((pool, taken)) = taken else {
            return false;
        };
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        fold(taken.contents);
        log.lock().finish_recycle(pool, taken.id);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.recycled[layer as usize].fetch_add(1, Ordering::Relaxed);
        self.wake();
        true
    }

    /// DataLog recycle: fold newest data into blocks, forward deltas.
    fn recycle_data_once(&self) -> bool {
        // Ordered take: per-pool serialisation keeps newest-wins safe.
        self.recycle_unit(
            Layer::Data,
            &self.data_log,
            LogPoolSet::take_recyclable_ordered,
            |contents| {
                for (block, ranges) in contents {
                    let (stripe, block_idx) = self.id_to_stripe_block(block);
                    let slot = self.block_slot(stripe, block_idx as usize);
                    // Compute deltas and apply new data under the block lock.
                    let mut deltas: Vec<(u32, Data)> = Vec::with_capacity(ranges.len());
                    {
                        let mut block = self.blocks[slot].write();
                        for (off, data) in &ranges {
                            let bytes = data.as_slice();
                            let range = *off as usize..*off as usize + bytes.len();
                            deltas.push((
                                *off,
                                Data::from_vec(data_delta(&block[range.clone()], bytes)),
                            ));
                            block[range].copy_from_slice(bytes);
                            self.applied_ranges.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Forward each delta to the DeltaLog (Eq. 2's ΔD).
                    let key = StripeBlock { stripe, block_idx };
                    for (off, delta) in deltas {
                        self.append_with_backpressure(Layer::Delta, move |sh| {
                            let mut log = sh.delta_log.lock();
                            log.append(key, off, delta.clone(), 0).1
                        });
                    }
                }
            },
        )
    }

    /// DeltaLog recycle: combine per stripe (Eq. 5), forward parity deltas.
    fn recycle_delta_once(&self) -> bool {
        self.recycle_unit(
            Layer::Delta,
            &self.delta_log,
            LogPoolSet::take_recyclable_any,
            |contents| {
                let mut tally = FoldTally::default();
                for job in group_delta_jobs(contents) {
                    for (off, len) in union_ranges(&job.deltas) {
                        let deltas = parity_deltas(&self.coeffs, &job.deltas, off, len, &mut tally);
                        for (p, payload) in deltas.into_iter().enumerate() {
                            let key = ParityKey {
                                stripe: job.stripe,
                                parity_idx: p as u16,
                            };
                            self.append_with_backpressure(Layer::Parity, move |sh| {
                                let mut log = sh.parity_log.lock();
                                log.append(key, off, payload.clone(), 0).1
                            });
                        }
                    }
                }
                self.parity_mul_bytes
                    .fetch_add(tally.mul, Ordering::Relaxed);
                self.parity_shared_bytes
                    .fetch_add(tally.shared, Ordering::Relaxed);
            },
        )
    }

    /// ParityLog recycle: XOR parity deltas into parity blocks (terminal).
    fn recycle_parity_once(&self) -> bool {
        let k = self.cfg.code.k();
        self.recycle_unit(
            Layer::Parity,
            &self.parity_log,
            LogPoolSet::take_recyclable_any,
            |contents| {
                for (parity, ranges) in contents {
                    let slot = self.block_slot(parity.stripe, k + parity.parity_idx as usize);
                    let mut block = self.blocks[slot].write();
                    for (off, delta) in &ranges {
                        let start = *off as usize;
                        gf256::slice::xor(
                            &mut block[start..start + delta.len() as usize],
                            delta.as_slice(),
                        );
                    }
                }
            },
        )
    }

    /// Appends via `try_append`, handling [`AppendOutcome::Stalled`] by
    /// recycling `layer` and the layers downstream of it inline (guaranteed
    /// progress: the parity layer is terminal). Only an append that seals a
    /// unit wakes the recyclers.
    fn append_with_backpressure<F>(&self, layer: Layer, try_append: F)
    where
        F: Fn(&Shared) -> AppendOutcome,
    {
        loop {
            let seen = self.wakes.load(Ordering::SeqCst);
            match try_append(self) {
                AppendOutcome::Appended => return,
                AppendOutcome::AppendedAndSealed(_) => {
                    self.sealed.fetch_add(1, Ordering::Relaxed);
                    self.wake();
                    return;
                }
                AppendOutcome::Stalled => {
                    let progressed = match layer {
                        Layer::Data => self.recycle_once(),
                        Layer::Delta => self.recycle_delta_once() || self.recycle_parity_once(),
                        Layer::Parity => self.recycle_parity_once(),
                    };
                    if progressed {
                        self.inline_recycles.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Another thread holds the unit: wait for it.
                        self.wait(seen);
                    }
                }
            }
        }
    }
}

/// Bytes a DeltaLog fold sent through the multiply and forwarded without
/// one (the [`EngineStats`] counters of the same names).
#[derive(Default)]
struct FoldTally {
    mul: u64,
    shared: u64,
}

/// Whether coefficient `c` costs a multiply (0 is skipped, 1 is an XOR).
fn multiplies(c: u8) -> bool {
    c > 1
}

/// The `m` parity deltas of the union range `[off, off + len)` of a stripe
/// job's `deltas` (Eq. 5), `coeffs[j]` being data block `j`'s coefficients.
/// A range spanned by a single delta forwards that delta, shared, for every
/// coefficient-1 row and multiplies it into fresh buffers for the others
/// in one pass; a range several deltas overlap takes [`accumulate`].
fn parity_deltas(
    coeffs: &[Vec<u8>],
    deltas: &[(u16, u32, Data)],
    off: u32,
    len: u32,
    tally: &mut FoldTally,
) -> Vec<Data> {
    let mut overlapping = deltas
        .iter()
        .filter(|(_, doff, d)| *doff < off + len && doff + d.len() > off);
    let (Some((block_idx, doff, delta)), None) = (overlapping.next(), overlapping.next()) else {
        return accumulate(coeffs, deltas, off, len, tally);
    };
    // A union range one delta overlaps is exactly that delta's span.
    debug_assert_eq!((*doff, delta.len()), (off, len));
    let cs = &coeffs[*block_idx as usize];
    let scaled_cs: Vec<u8> = cs.iter().copied().filter(|&c| c != 1).collect();
    let mut scaled = vec![vec![0u8; len as usize]; scaled_cs.len()];
    let mut dsts: Vec<&mut [u8]> = scaled.iter_mut().map(Vec::as_mut_slice).collect();
    gf256::slice::mul_acc_rows(&mut dsts, delta.as_slice(), &scaled_cs);
    tally.mul += len as u64 * scaled_cs.iter().filter(|&&c| multiplies(c)).count() as u64;
    let mut scaled = scaled.into_iter();
    cs.iter()
        .map(|&c| match c {
            1 => {
                tally.shared += len as u64;
                delta.clone()
            }
            _ => Data::from_vec(scaled.next().expect("one buffer per scaled row")),
        })
        .collect()
}

/// [`parity_deltas`] by accumulation: one zeroed buffer per parity row, each
/// overlapping piece of `deltas` read once and folded into all `m`.
fn accumulate(
    coeffs: &[Vec<u8>],
    deltas: &[(u16, u32, Data)],
    off: u32,
    len: u32,
    tally: &mut FoldTally,
) -> Vec<Data> {
    let m = coeffs.first().map_or(0, Vec::len);
    let mut accs = vec![vec![0u8; len as usize]; m];
    for (block_idx, doff, delta) in deltas {
        // Overlap of [doff, doff+dlen) with [off, off+len).
        let lo = (*doff).max(off);
        let hi = (doff + delta.len()).min(off + len);
        if lo >= hi {
            continue;
        }
        let cs = &coeffs[*block_idx as usize];
        let window = (lo - off) as usize..(hi - off) as usize;
        let mut dsts: Vec<&mut [u8]> = accs.iter_mut().map(|a| &mut a[window.clone()]).collect();
        gf256::slice::mul_acc_rows(
            &mut dsts,
            &delta.as_slice()[(lo - doff) as usize..(hi - doff) as usize],
            cs,
        );
        tally.mul += (hi - lo) as u64 * cs.iter().filter(|&&c| multiplies(c)).count() as u64;
    }
    accs.into_iter().map(Data::from_vec).collect()
}

/// Exact counters of the engine's back-pressure protocol (see
/// [`TsueEngine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Wake-ups sent: one per unit sealed by an append, one per finished
    /// recycle.
    pub wakes: u64,
    /// Units sealed by an append that rotated to a fresh unit (a flush's
    /// seals wake nobody: the flush recycles them itself).
    pub sealed: u64,
    /// Waits on the work condvar, by recyclers with nothing to take and by
    /// stalled appenders.
    pub waits: u64,
    /// Waits that ended at the 1 ms timeout rather than by a wake.
    pub timed_out_waits: u64,
    /// Units recycled inline by an appender stalled on back-pressure (the
    /// writer, or a recycler forwarding to a full downstream layer).
    pub inline_recycles: u64,
    /// Units recycled per [`Layer`]: DataLog, DeltaLog, ParityLog.
    pub recycled: [u64; 3],
    /// Delta bytes × parity rows the DeltaLog recycle sent through the
    /// GF(2⁸) multiply (a coefficient other than 0 or 1). At most `m - 1`
    /// per folded delta byte, since the first parity row is all ones, and
    /// none for data block 0, whose column is all ones.
    pub parity_mul_bytes: u64,
    /// Delta bytes × parity rows forwarded as a parity delta without a
    /// multiply: a range one delta spans shares that delta with every
    /// coefficient-1 row.
    pub parity_shared_bytes: u64,
    /// Payload bytes each layer's log units reference when [`TsueEngine::stats`]
    /// runs: DataLog, DeltaLog, ParityLog. After [`TsueEngine::flush`] only
    /// the DataLog holds any, as its read cache.
    pub log_bytes: [u64; 3],
}

/// The public engine handle. Dropping it stops the recycler threads.
pub struct TsueEngine {
    shared: Arc<Shared>,
    recyclers: Vec<JoinHandle<()>>,
}

impl TsueEngine {
    /// Builds the engine and starts its recycler threads. All blocks start
    /// zeroed (a valid codeword: parity of zeros is zeros).
    ///
    /// # Panics
    /// Panics on an invalid configuration (see [`EngineConfig::validate`];
    /// use [`EngineConfig::builder`] for a non-panicking path).
    pub fn new(cfg: EngineConfig) -> TsueEngine {
        cfg.validate().expect("invalid engine config");
        let rs = ReedSolomon::new(cfg.code);
        let total_blocks = cfg.stripes as usize * cfg.code.total();
        let pool_cfg = |mode| PoolConfig {
            unit_bytes: cfg.unit_bytes,
            min_units: 2,
            max_units: cfg.max_units,
            mode,
        };
        let shared = Arc::new(Shared {
            coeffs: (0..cfg.code.k()).map(|j| rs.data_coefficients(j)).collect(),
            rs,
            blocks: (0..total_blocks)
                .map(|_| RwLock::new(vec![0u8; cfg.block_len as usize]))
                .collect(),
            data_log: Mutex::new(LogPoolSet::new(
                cfg.pools_per_layer,
                pool_cfg(MergeMode::Overwrite),
            )),
            delta_log: Mutex::new(LogPoolSet::new(
                cfg.pools_per_layer,
                pool_cfg(MergeMode::Xor),
            )),
            parity_log: Mutex::new(LogPoolSet::new(
                cfg.pools_per_layer,
                pool_cfg(MergeMode::Xor),
            )),
            work_cv: Condvar::new(),
            work_mx: Mutex::new(()),
            wakes: AtomicU64::new(0),
            sealed: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            timed_out_waits: AtomicU64::new(0),
            inline_recycles: AtomicU64::new(0),
            recycled: Default::default(),
            parity_mul_bytes: AtomicU64::new(0),
            parity_shared_bytes: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            acked: AtomicU64::new(0),
            applied_ranges: AtomicU64::new(0),
            cfg,
        });
        let recyclers = (0..shared.cfg.recycler_threads)
            .map(|_| {
                let sh = Arc::clone(&shared);
                std::thread::spawn(move || {
                    while !sh.shutdown.load(Ordering::SeqCst) {
                        let seen = sh.wakes.load(Ordering::SeqCst);
                        if !sh.recycle_once() {
                            sh.wait(seen);
                        }
                    }
                })
            })
            .collect();
        TsueEngine { shared, recyclers }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.cfg
    }

    /// Front-end update: appends `bytes` at `offset` of data block
    /// `(stripe, block_idx)` to the DataLog and returns once logged — the
    /// two-stage ack point. Blocks (briefly) under log back-pressure. A
    /// write longer than a log unit is logged as records of at most
    /// `unit_bytes` each and acknowledged once.
    ///
    /// # Panics
    /// Panics on out-of-range stripe/block/offset.
    pub fn update(&self, stripe: u64, block_idx: u16, offset: u32, bytes: &[u8]) {
        let cfg = &self.shared.cfg;
        assert!(stripe < cfg.stripes, "stripe out of range");
        assert!((block_idx as usize) < cfg.code.k(), "not a data block");
        assert!(
            offset as usize + bytes.len() <= cfg.block_len as usize,
            "update beyond block"
        );
        assert!(!bytes.is_empty(), "empty update");
        let id = self.shared.data_block_id(stripe, block_idx);
        let unit = cfg.unit_bytes.min(cfg.block_len as u64) as usize;
        for (i, chunk) in bytes.chunks(unit).enumerate() {
            let at = offset + (i * unit) as u32;
            let payload = Data::copy_from(chunk);
            // Under back-pressure the writer helps recycle rather than spin.
            self.shared
                .append_with_backpressure(Layer::Data, move |sh| {
                    sh.data_log.lock().append(id, at, payload.clone(), 0).1
                });
        }
        self.shared.acked.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads `len` bytes at `offset` of a data block through the log cache:
    /// log pieces overlay the block content, newest last (§3.3.3's
    /// read-your-writes guarantee).
    pub fn read(&self, stripe: u64, block_idx: u16, offset: u32, len: u32) -> Vec<u8> {
        let cfg = &self.shared.cfg;
        assert!(stripe < cfg.stripes, "stripe out of range");
        assert!((block_idx as usize) < cfg.code.k(), "not a data block");
        assert!(
            offset as usize + len as usize <= cfg.block_len as usize,
            "read beyond block"
        );
        let slot = self.shared.block_slot(stripe, block_idx as usize);
        let mut out = {
            let block = self.shared.blocks[slot].read();
            block[offset as usize..(offset + len) as usize].to_vec()
        };
        let id = self.shared.data_block_id(stripe, block_idx);
        let pieces = self.shared.data_log.lock().lookup(&id, offset, len);
        for (o, p) in pieces {
            let rel = (o - offset) as usize;
            out[rel..rel + p.len() as usize].copy_from_slice(p.as_slice());
        }
        out
    }

    /// Drains every layer: seals active units and recycles until all three
    /// logs are empty and no unit is in flight. Afterwards all acknowledged
    /// updates are folded into data *and* parity blocks.
    ///
    /// Callers must quiesce their own writers first: updates racing with
    /// `flush` are durable but may not be folded when it returns.
    pub fn flush(&self) {
        loop {
            {
                self.shared.data_log.lock().seal_all_active();
                self.shared.delta_log.lock().seal_all_active();
                self.shared.parity_log.lock().seal_all_active();
            }
            // Help recycle inline.
            while self.shared.recycle_once() {}
            let quiet = {
                let data = self.shared.data_log.lock();
                let delta = self.shared.delta_log.lock();
                let parity = self.shared.parity_log.lock();
                data.is_fully_drained()
                    && delta.is_fully_drained()
                    && parity.is_fully_drained()
                    && data.active_bytes() == 0
                    && delta.active_bytes() == 0
                    && parity.active_bytes() == 0
            };
            if quiet && self.shared.in_flight.load(Ordering::SeqCst) == 0 {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// Verifies that every stripe's parity equals a fresh re-encode of its
    /// data blocks. Call after [`Self::flush`].
    ///
    /// Each stripe is encoded straight from read guards over its data
    /// blocks into one set of `m` buffers, allocated once for all stripes.
    pub fn verify_parity(&self) -> bool {
        let sh = &self.shared;
        let (k, m) = (sh.cfg.code.k(), sh.cfg.code.m());
        let mut expect = vec![vec![0u8; sh.cfg.block_len as usize]; m];
        for stripe in 0..sh.cfg.stripes {
            {
                let data: Vec<_> = (0..k)
                    .map(|j| sh.blocks[sh.block_slot(stripe, j)].read())
                    .collect();
                let data_refs: Vec<&[u8]> = data.iter().map(|g| g.as_slice()).collect();
                let mut expect_refs: Vec<&mut [u8]> =
                    expect.iter_mut().map(Vec::as_mut_slice).collect();
                sh.rs.encode(&data_refs, &mut expect_refs).expect("encode");
            }
            for (p, exp) in expect.iter().enumerate() {
                let actual = sh.blocks[sh.block_slot(stripe, k + p)].read();
                if *actual != *exp {
                    return false;
                }
            }
        }
        true
    }

    /// Number of acknowledged updates.
    pub fn acked_updates(&self) -> u64 {
        self.shared.acked.load(Ordering::Relaxed)
    }

    /// Number of merged ranges applied to data blocks so far.
    pub fn applied_ranges(&self) -> u64 {
        self.shared.applied_ranges.load(Ordering::Relaxed)
    }

    /// Exact counters of the back-pressure protocol so far.
    pub fn stats(&self) -> EngineStats {
        let sh = &self.shared;
        let get = |c: &AtomicU64| c.load(Ordering::SeqCst);
        EngineStats {
            wakes: get(&sh.wakes),
            sealed: get(&sh.sealed),
            waits: get(&sh.waits),
            timed_out_waits: get(&sh.timed_out_waits),
            inline_recycles: get(&sh.inline_recycles),
            recycled: sh.recycled.each_ref().map(get),
            parity_mul_bytes: get(&sh.parity_mul_bytes),
            parity_shared_bytes: get(&sh.parity_shared_bytes),
            log_bytes: [
                sh.data_log.lock().held_bytes(),
                sh.delta_log.lock().held_bytes(),
                sh.parity_log.lock().held_bytes(),
            ],
        }
    }

    /// A raw copy of a block (data or parity) for test oracles.
    pub fn raw_block(&self, stripe: u64, idx: usize) -> Vec<u8> {
        self.shared.blocks[self.shared.block_slot(stripe, idx)]
            .read()
            .clone()
    }
}

impl Drop for TsueEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        for h in self.recyclers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TsueEngine {
        TsueEngine::new(EngineConfig {
            code: CodeParams::new(4, 2).unwrap(),
            block_len: 16 << 10,
            stripes: 3,
            unit_bytes: 8 << 10,
            max_units: 4,
            pools_per_layer: 2,
            recycler_threads: 2,
        })
    }

    #[test]
    fn single_update_reaches_parity() {
        let e = engine();
        e.update(0, 1, 100, &[0xab; 64]);
        e.flush();
        assert!(e.verify_parity());
        assert_eq!(e.read(0, 1, 100, 64), vec![0xab; 64]);
        assert_eq!(e.acked_updates(), 1);
    }

    #[test]
    fn read_your_writes_before_recycle() {
        let e = engine();
        e.update(1, 0, 0, &[7; 32]);
        // No flush: the data may still be only in the log.
        assert_eq!(e.read(1, 0, 0, 32), vec![7; 32]);
        // Unwritten parts read as zero.
        assert_eq!(e.read(1, 0, 32, 8), vec![0; 8]);
    }

    #[test]
    fn overlapping_updates_newest_wins() {
        let e = engine();
        e.update(0, 0, 0, &[1; 100]);
        e.update(0, 0, 50, &[2; 100]);
        e.update(0, 0, 75, &[3; 10]);
        e.flush();
        let got = e.read(0, 0, 0, 150);
        assert_eq!(&got[..50], &[1; 50][..]);
        assert_eq!(&got[50..75], &[2; 25][..]);
        assert_eq!(&got[75..85], &[3; 10][..]);
        assert_eq!(&got[85..150], &[2; 65][..]);
        assert!(e.verify_parity());
    }

    #[test]
    fn heavy_single_thread_churn_stays_consistent() {
        let e = engine();
        let mut x = 99u64;
        for i in 0..3000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let stripe = (x >> 10) % 3;
            let block = ((x >> 20) % 4) as u16;
            let off = ((x >> 30) % ((16 << 10) - 512)) as u32;
            let len = 1 + ((x >> 40) % 511) as usize;
            let byte = (i % 251) as u8;
            e.update(stripe, block, off, &vec![byte; len]);
        }
        e.flush();
        assert!(e.verify_parity());
        assert_eq!(e.acked_updates(), 3000);
    }

    #[test]
    fn concurrent_writers_stay_consistent() {
        let e = Arc::new(engine());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let e = Arc::clone(&e);
                std::thread::spawn(move || {
                    let mut x = 7 + t as u64;
                    for _ in 0..800 {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(t as u64);
                        let stripe = (x >> 9) % 3;
                        // Each thread owns one block per stripe: no
                        // cross-thread write races on the same range.
                        let block = t as u16;
                        let off = ((x >> 33) % ((16 << 10) - 256)) as u32;
                        let len = 1 + ((x >> 45) % 255) as usize;
                        e.update(stripe, block, off, &vec![(x % 256) as u8; len]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        e.flush();
        assert!(e.verify_parity());
        assert_eq!(e.acked_updates(), 3200);
    }

    #[test]
    fn wakes_follow_seals_and_recycles_not_appends() {
        let e = engine();
        let mut x = 5u64;
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = ((x >> 30) % ((16 << 10) - 256)) as u32;
            e.update((x >> 10) % 3, ((x >> 20) % 4) as u16, off, &[x as u8; 256]);
        }
        e.flush();
        assert!(e.verify_parity());
        let stats = e.stats();
        let recycled: u64 = stats.recycled.iter().sum();
        assert!(stats.recycled.iter().all(|&n| n > 0), "{stats:?}");
        assert!(stats.sealed > 0, "{stats:?}");
        assert!(stats.wakes > 0, "{stats:?}");
        assert!(stats.wakes <= stats.sealed + recycled, "{stats:?}");
        assert!(stats.wakes < e.acked_updates(), "{stats:?}");
        assert!(stats.timed_out_waits <= stats.waits, "{stats:?}");
    }

    #[test]
    fn update_longer_than_a_unit_is_split_and_acked_once() {
        // 9 000 bytes into 8 KiB units: two records, one ack.
        let e = engine();
        e.update(0, 0, 0, &[7; 9000]);
        e.flush();
        assert!(e.verify_parity());
        assert_eq!(e.read(0, 0, 0, 9000), vec![7; 9000]);
        assert_eq!(e.acked_updates(), 1);
    }

    fn rs63_engine() -> TsueEngine {
        let cfg = EngineConfig::builder(CodeParams::new(6, 3).unwrap())
            .block_len(16 << 10)
            .stripes(3)
            .unit_bytes(8 << 10)
            .build()
            .unwrap();
        TsueEngine::new(cfg)
    }

    /// Issues `n` seeded updates of 1..=511 bytes at random offsets of
    /// data blocks `0..blocks`; returns the bytes written.
    fn seeded_stream(e: &TsueEngine, n: usize, blocks: u64) -> u64 {
        let mut x = 11u64;
        let mut written = 0;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let off = ((x >> 30) % ((16 << 10) - 512)) as u32;
            let len = 1 + ((x >> 40) % 511) as usize;
            e.update(
                (x >> 10) % 3,
                ((x >> 20) % blocks) as u16,
                off,
                &vec![x as u8 | 1; len],
            );
            written += len as u64;
        }
        written
    }

    #[test]
    fn block_zero_deltas_cost_no_multiply() {
        let e = rs63_engine();
        seeded_stream(&e, 500, 1);
        e.flush();
        assert!(e.verify_parity());
        let stats = e.stats();
        assert_eq!(stats.parity_mul_bytes, 0, "{stats:?}");
        assert!(stats.parity_shared_bytes > 0, "{stats:?}");
    }

    #[test]
    fn mixed_stream_multiplies_at_most_two_rows_per_byte() {
        let e = rs63_engine();
        let written = seeded_stream(&e, 2000, 6);
        e.flush();
        assert!(e.verify_parity());
        // Merges only shrink the deltas, so the bytes folded are at most the
        // bytes written, and each is multiplied into at most m - 1 = 2 rows.
        let stats = e.stats();
        assert!(stats.parity_mul_bytes > 0, "{stats:?}");
        assert!(
            stats.parity_mul_bytes <= 2 * written,
            "{stats:?}, {written} written"
        );
    }

    #[test]
    fn disjoint_stream_multiplies_exactly_two_rows_outside_block_zero() {
        // Each update gets its own 64-byte slot of its block: nothing merges
        // away, so every written byte is folded exactly once.
        let e = rs63_engine();
        let mut x = 3u64;
        let (mut outside_zero, mut total) = (0u64, 0u64);
        for slot in 0..256u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let (stripe, block, len) = ((x >> 10) % 3, ((x >> 20) % 6) as u16, 1 + (x >> 40) % 64);
            e.update(stripe, block, slot * 64, &vec![x as u8 | 1; len as usize]);
            total += len;
            if block != 0 {
                outside_zero += len;
            }
        }
        e.flush();
        assert!(e.verify_parity());
        let stats = e.stats();
        assert_eq!(stats.parity_mul_bytes, 2 * outside_zero, "{stats:?}");
        assert!(
            stats.parity_shared_bytes >= total,
            "{stats:?}, {total} folded"
        );
    }

    #[test]
    fn shared_delta_fold_equals_accumulation() {
        // Seeded stripe jobs mixing ranges one delta spans, block-0 deltas
        // and overlapping or touching deltas across blocks: every union
        // range's parity deltas must match the accumulate path byte for
        // byte, with the same multiply count.
        let rs = ReedSolomon::new(CodeParams::new(6, 3).unwrap());
        let coeffs: Vec<Vec<u8>> = (0..6).map(|j| rs.data_coefficients(j)).collect();
        let mut x = 0x5eed_u64;
        let mut next = |bound: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % bound
        };
        let (mut single, mut multi) = (0, 0);
        for _ in 0..200 {
            let mut deltas: Vec<(u16, u32, Data)> = (0..1 + next(12))
                .map(|_| {
                    let block = next(6) as u16;
                    let off = next(64) as u32 * 32;
                    let bytes: Vec<u8> = (0..1 + next(200)).map(|_| next(256) as u8).collect();
                    (block, off, Data::from_vec(bytes))
                })
                .collect();
            deltas.sort_by_key(|&(b, o, _)| (b, o));
            for (off, len) in union_ranges(&deltas) {
                let (mut fast, mut slow) = (FoldTally::default(), FoldTally::default());
                let got = parity_deltas(&coeffs, &deltas, off, len, &mut fast);
                let want = accumulate(&coeffs, &deltas, off, len, &mut slow);
                assert_eq!(got, want, "range ({off}, {len}) of {deltas:?}");
                assert_eq!(fast.mul, slow.mul);
                if fast.shared > 0 {
                    single += 1;
                } else {
                    multi += 1;
                }
            }
        }
        assert!(single > 50 && multi > 50, "{single} single, {multi} multi");
    }

    #[test]
    fn flush_leaves_no_delta_or_parity_bytes() {
        let e = engine();
        seeded_stream(&e, 2000, 4);
        let before = e.stats().log_bytes;
        assert!(before[0] > 0, "{before:?}");
        e.flush();
        assert!(e.verify_parity());
        let [data, delta, parity] = e.stats().log_bytes;
        assert_eq!((delta, parity), (0, 0), "a delta serves no read");
        let cfg = e.config();
        let quota = (cfg.pools_per_layer * cfg.max_units) as u64 * cfg.unit_bytes;
        assert!(
            data > 0 && data <= quota,
            "{data} read-cache bytes, quota {quota}"
        );
    }

    #[test]
    fn flush_is_idempotent() {
        let e = engine();
        e.update(0, 0, 0, &[5; 10]);
        e.flush();
        e.flush();
        assert!(e.verify_parity());
    }

    #[test]
    #[should_panic(expected = "not a data block")]
    fn updating_parity_block_panics() {
        let e = engine();
        e.update(0, 4, 0, &[1]);
    }

    #[test]
    #[should_panic(expected = "read beyond block")]
    fn read_past_u32_max_is_rejected() {
        let e = engine();
        let _ = e.read(0, 0, u32::MAX - 15, 32);
    }
}
