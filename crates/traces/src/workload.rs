//! The synthetic workload generator and its per-family presets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;
use crate::{OpKind, TraceOp};

/// 4 KiB: the slot granularity all offsets align to (matching the sector
/// alignment of the original block traces).
pub const SLOT: u64 = 4096;

/// The three trace families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceFamily {
    /// Alibaba block storage trace (§5.2).
    AliCloud,
    /// Tencent block storage trace (§5.2).
    TenCloud,
    /// MSR-Cambridge volume by name (§5.4).
    Msr(MsrVolume),
}

/// The seven MSR-Cambridge volumes used in Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MsrVolume {
    Src10,
    Src22,
    Proj2,
    Prn1,
    Hm0,
    Usr0,
    Mds0,
}

impl MsrVolume {
    /// All seven volumes in the order Fig. 8 plots them.
    pub const ALL: [MsrVolume; 7] = [
        MsrVolume::Src10,
        MsrVolume::Src22,
        MsrVolume::Proj2,
        MsrVolume::Prn1,
        MsrVolume::Hm0,
        MsrVolume::Usr0,
        MsrVolume::Mds0,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            MsrVolume::Src10 => "src10",
            MsrVolume::Src22 => "src22",
            MsrVolume::Proj2 => "proj2",
            MsrVolume::Prn1 => "prn1",
            MsrVolume::Hm0 => "hm0",
            MsrVolume::Usr0 => "usr0",
            MsrVolume::Mds0 => "mds0",
        }
    }
}

/// All statistical knobs of a synthetic workload.
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// Human-readable name (figure labels).
    pub name: String,
    /// Logical volume size in bytes (slot-aligned).
    pub volume_bytes: u64,
    /// Fraction of the volume pre-written before replay starts.
    pub prefilled_fraction: f64,
    /// Fraction of requests that are updates (overwrites).
    pub update_fraction: f64,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// `(size_bytes, probability)` mixture for request sizes.
    pub size_dist: Vec<(u32, f64)>,
    /// Zipf skew of slot popularity inside the hot region.
    pub zipf_theta: f64,
    /// Fraction of written slots forming the hot region.
    pub hot_fraction: f64,
    /// Fraction of update/read accesses directed at the hot region.
    pub hot_access_fraction: f64,
    /// Probability the next request continues where the previous ended
    /// (sequential run → adjacent-merge opportunities).
    pub seq_run_prob: f64,
}

impl WorkloadParams {
    /// Validates invariants (probabilities in range, distribution sums to 1).
    pub fn validate(&self) -> Result<(), String> {
        let sum: f64 = self.size_dist.iter().map(|&(_, p)| p).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("size distribution sums to {sum}, not 1"));
        }
        for &(s, _) in &self.size_dist {
            if s == 0 || !(s as u64).is_multiple_of(SLOT) {
                return Err(format!("size {s} not a positive multiple of {SLOT}"));
            }
        }
        for (name, v) in [
            ("prefilled_fraction", self.prefilled_fraction),
            ("update_fraction", self.update_fraction),
            ("read_fraction", self.read_fraction),
            ("hot_fraction", self.hot_fraction),
            ("hot_access_fraction", self.hot_access_fraction),
            ("seq_run_prob", self.seq_run_prob),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} out of [0,1]"));
            }
        }
        if self.update_fraction + self.read_fraction > 1.0 {
            return Err("update + read fractions exceed 1".into());
        }
        if self.volume_bytes < 16 * SLOT {
            return Err("volume too small".into());
        }
        Ok(())
    }

    /// The Ali-Cloud preset: 75 % updates; of those 46 % are exactly 4 KiB
    /// and 60 % are ≤ 16 KiB; moderate skew.
    pub fn ali_cloud(volume_bytes: u64) -> WorkloadParams {
        WorkloadParams {
            name: "Ali-Cloud".into(),
            volume_bytes,
            prefilled_fraction: 0.6,
            update_fraction: 0.75,
            read_fraction: 0.15,
            size_dist: vec![
                (4 << 10, 0.46),
                (8 << 10, 0.07),
                (16 << 10, 0.07),
                (32 << 10, 0.12),
                (64 << 10, 0.13),
                (128 << 10, 0.10),
                (256 << 10, 0.05),
            ],
            zipf_theta: 0.85,
            hot_fraction: 0.10,
            hot_access_fraction: 0.80,
            seq_run_prob: 0.15,
        }
    }

    /// The Ten-Cloud preset: 69 % updates; 69 % exactly 4 KiB, 88 % ≤ 16 KiB;
    /// strong skew (>80 % of datasets touch <5 % of their volume).
    pub fn ten_cloud(volume_bytes: u64) -> WorkloadParams {
        WorkloadParams {
            name: "Ten-Cloud".into(),
            volume_bytes,
            prefilled_fraction: 0.6,
            update_fraction: 0.69,
            read_fraction: 0.20,
            size_dist: vec![
                (4 << 10, 0.69),
                (8 << 10, 0.10),
                (16 << 10, 0.09),
                (32 << 10, 0.05),
                (64 << 10, 0.04),
                (128 << 10, 0.03),
            ],
            zipf_theta: 0.95,
            hot_fraction: 0.04,
            hot_access_fraction: 0.90,
            seq_run_prob: 0.20,
        }
    }

    /// An MSR-Cambridge volume preset: write-dominated (>90 % of writes are
    /// updates), ~60 % of updates <4 KiB... rounded up to the 4 KiB slot,
    /// 90 % ≤ 16 KiB; per-volume size/skew flavour.
    pub fn msr(volume: MsrVolume, volume_bytes: u64) -> WorkloadParams {
        // (theta, hot_fraction, read_fraction, seq_run, big_io_share)
        let (theta, hot, read, seq, big) = match volume {
            MsrVolume::Src10 => (0.92, 0.05, 0.05, 0.25, 0.04),
            MsrVolume::Src22 => (0.85, 0.08, 0.06, 0.20, 0.06),
            MsrVolume::Proj2 => (0.70, 0.15, 0.12, 0.15, 0.12),
            MsrVolume::Prn1 => (0.80, 0.10, 0.08, 0.18, 0.08),
            MsrVolume::Hm0 => (0.88, 0.06, 0.05, 0.22, 0.05),
            MsrVolume::Usr0 => (0.75, 0.12, 0.10, 0.15, 0.10),
            MsrVolume::Mds0 => (0.90, 0.05, 0.04, 0.25, 0.03),
        };
        let small = 1.0 - 0.25 - 0.10 - big;
        WorkloadParams {
            name: format!("MSR-{}", volume.name()),
            volume_bytes,
            prefilled_fraction: 0.6,
            update_fraction: 0.90 * (1.0 - read),
            read_fraction: read,
            size_dist: vec![
                (4 << 10, small),
                (8 << 10, 0.25),
                (16 << 10, 0.10),
                (64 << 10, big),
            ],
            zipf_theta: theta,
            hot_fraction: hot,
            hot_access_fraction: 0.85,
            seq_run_prob: seq,
        }
    }

    /// Preset lookup by family.
    pub fn for_family(family: TraceFamily, volume_bytes: u64) -> WorkloadParams {
        match family {
            TraceFamily::AliCloud => Self::ali_cloud(volume_bytes),
            TraceFamily::TenCloud => Self::ten_cloud(volume_bytes),
            TraceFamily::Msr(v) => Self::msr(v, volume_bytes),
        }
    }
}

/// Deterministic, seedable trace generator implementing the statistical
/// model of [`WorkloadParams`]; yields an infinite stream via [`Iterator`].
#[derive(Debug, Clone)]
pub struct WorkloadGen {
    params: WorkloadParams,
    rng: StdRng,
    zipf_hot: Zipf,
    total_slots: u64,
    /// Slots `0..frontier` are written (updates and reads target these).
    frontier: u64,
    /// First slot of the hot region (position drawn from the seed).
    hot_base: u64,
    /// Continuation point for sequential runs.
    last_end: Option<(OpKind, u64)>,
}

impl WorkloadGen {
    /// Builds a generator.
    ///
    /// # Panics
    /// Panics if the parameters fail validation.
    pub fn new(params: WorkloadParams, seed: u64) -> WorkloadGen {
        params.validate().expect("invalid workload parameters");
        let (_, frontier) = Self::initial_slots(&params);
        let hot_slots = ((frontier as f64 * params.hot_fraction) as u64).max(4);
        let zipf_hot = Zipf::new(hot_slots, params.zipf_theta);
        Self::with_zipf(params, zipf_hot, seed)
    }

    /// The generator `WorkloadGen::new(self.params().clone(), seed)` builds,
    /// without recomputing the hot-region [`Zipf`]: its harmonic sum
    /// depends only on the parameters, so the clone is exact. The new
    /// generator starts fresh whatever `self` has already yielded — build
    /// one template per parameter set and derive each client from it.
    pub fn reseeded(&self, seed: u64) -> WorkloadGen {
        Self::with_zipf(self.params.clone(), self.zipf_hot.clone(), seed)
    }

    /// `(total_slots, frontier)` before any op: slots `0..frontier` are
    /// prefilled.
    fn initial_slots(params: &WorkloadParams) -> (u64, u64) {
        let total_slots = params.volume_bytes / SLOT;
        let frontier = ((total_slots as f64 * params.prefilled_fraction) as u64).max(8);
        (total_slots, frontier)
    }

    fn with_zipf(params: WorkloadParams, zipf_hot: Zipf, seed: u64) -> WorkloadGen {
        let (total_slots, frontier) = Self::initial_slots(&params);
        let hot_slots = zipf_hot.n();
        let mut rng = StdRng::seed_from_u64(seed);
        let hot_base = rng.random_range(0..frontier.saturating_sub(hot_slots).max(1));
        WorkloadGen {
            params,
            rng,
            zipf_hot,
            total_slots,
            frontier,
            hot_base,
            last_end: None,
        }
    }

    /// The parameters in force.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Heap bytes the generator owns (its parameters' name and size
    /// mixture), for the replays' state accounting.
    pub fn heap_bytes(&self) -> usize {
        self.params.name.capacity() + self.params.size_dist.capacity() * size_of::<(u32, f64)>()
    }

    /// Current written frontier in bytes.
    pub fn written_bytes(&self) -> u64 {
        self.frontier * SLOT
    }

    fn sample_size(&mut self) -> u32 {
        let u: f64 = self.rng.random();
        let mut acc = 0.0;
        for &(s, p) in &self.params.size_dist {
            acc += p;
            if u < acc {
                return s;
            }
        }
        self.params.size_dist.last().map(|&(s, _)| s).unwrap()
    }

    fn sample_written_offset(&mut self, len: u64) -> u64 {
        let len_slots = len.div_ceil(SLOT);
        let slot = if self.rng.random::<f64>() < self.params.hot_access_fraction {
            // Hot region: Zipf-popular slot.
            let s = self.hot_base + self.zipf_hot.sample(&mut self.rng);
            s.min(self.frontier - 1)
        } else {
            self.rng.random_range(0..self.frontier)
        };
        // Clamp so the request stays inside the written region.
        let max_start = self.frontier.saturating_sub(len_slots);
        slot.min(max_start) * SLOT
    }

    fn next_op(&mut self) -> TraceOp {
        let len = self.sample_size();
        let len_slots = len as u64 / SLOT;

        // Sequential continuation: keep the previous kind, adjacent offset.
        if let Some((kind, end)) = self.last_end {
            if self.rng.random::<f64>() < self.params.seq_run_prob {
                let end_slot = end / SLOT;
                let fits_written = end_slot + len_slots <= self.frontier;
                if kind != OpKind::Write && fits_written {
                    let op = self.emit(kind, end, len);
                    return op;
                }
            }
        }

        let u: f64 = self.rng.random();
        let (kind, offset) = if u < self.params.update_fraction {
            (OpKind::Update, self.sample_written_offset(len as u64))
        } else if u < self.params.update_fraction + self.params.read_fraction {
            (OpKind::Read, self.sample_written_offset(len as u64))
        } else {
            // Fresh write: extend the frontier; once the volume is full,
            // fall back to updates (the device cannot grow).
            if self.frontier + len_slots <= self.total_slots {
                let off = self.frontier * SLOT;
                self.frontier += len_slots;
                (OpKind::Write, off)
            } else {
                (OpKind::Update, self.sample_written_offset(len as u64))
            }
        };
        self.emit(kind, offset, len)
    }

    fn emit(&mut self, kind: OpKind, offset: u64, len: u32) -> TraceOp {
        self.last_end = Some((kind, offset + len as u64));
        TraceOp {
            at_ns: 0,
            offset,
            len,
            kind,
        }
    }

    /// Generates exactly `n` operations.
    pub fn take_ops(&mut self, n: usize) -> Vec<TraceOp> {
        (0..n).map(|_| self.next_op()).collect()
    }
}

impl Iterator for WorkloadGen {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VOL: u64 = 256 << 20; // 256 MiB test volume

    #[test]
    fn presets_validate() {
        WorkloadParams::ali_cloud(VOL).validate().unwrap();
        WorkloadParams::ten_cloud(VOL).validate().unwrap();
        for v in MsrVolume::ALL {
            WorkloadParams::msr(v, VOL).validate().unwrap();
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = WorkloadGen::new(WorkloadParams::ali_cloud(VOL), 42);
        let mut b = WorkloadGen::new(WorkloadParams::ali_cloud(VOL), 42);
        assert_eq!(a.take_ops(5000), b.take_ops(5000));
    }

    #[test]
    fn reseeded_equals_new() {
        for params in [
            WorkloadParams::ali_cloud(VOL),
            WorkloadParams::ten_cloud(VOL),
        ] {
            let mut template = WorkloadGen::new(params.clone(), 0);
            template.take_ops(300); // progress must not carry over
            for seed in [1, 9, 1 << 40] {
                let mut fresh = WorkloadGen::new(params.clone(), seed);
                let mut derived = template.reseeded(seed);
                assert_eq!(fresh.take_ops(3000), derived.take_ops(3000));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = WorkloadGen::new(WorkloadParams::ali_cloud(VOL), 1);
        let mut b = WorkloadGen::new(WorkloadParams::ali_cloud(VOL), 2);
        assert_ne!(a.take_ops(100), b.take_ops(100));
    }

    #[test]
    fn ops_stay_in_volume_and_aligned() {
        let mut g = WorkloadGen::new(WorkloadParams::ten_cloud(VOL), 7);
        for op in g.take_ops(20_000) {
            assert!(op.end() <= VOL, "op beyond volume: {op:?}");
            assert_eq!(op.offset % SLOT, 0, "unaligned offset: {op:?}");
            assert!(op.len > 0);
        }
    }

    #[test]
    fn updates_and_reads_hit_written_space() {
        let mut g = WorkloadGen::new(WorkloadParams::ali_cloud(VOL), 3);
        let ops = g.take_ops(20_000);
        let frontier_end = g.written_bytes();
        for op in &ops {
            if matches!(op.kind, OpKind::Update | OpKind::Read) {
                assert!(
                    op.end() <= frontier_end,
                    "update/read beyond written frontier: {op:?}"
                );
            }
        }
    }

    #[test]
    fn closed_loop_timestamps_zero() {
        let mut g = WorkloadGen::new(WorkloadParams::ali_cloud(VOL), 11);
        assert!(g.take_ops(100).iter().all(|o| o.at_ns == 0));
    }

    #[test]
    fn volume_full_falls_back_to_updates() {
        let mut p = WorkloadParams::ali_cloud(1 << 20); // 1 MiB: fills fast
        p.update_fraction = 0.0;
        p.read_fraction = 0.0;
        p.size_dist = vec![(4096, 1.0)];
        let mut g = WorkloadGen::new(p, 5);
        let ops = g.take_ops(2000);
        // 1 MiB = 256 slots; 60% prefilled leaves ~102 fresh writes.
        let writes = ops.iter().filter(|o| o.kind == OpKind::Write).count();
        let updates = ops.iter().filter(|o| o.kind == OpKind::Update).count();
        assert!(writes <= 110, "writes {writes}");
        assert!(updates >= 1890, "updates {updates}");
    }
}
