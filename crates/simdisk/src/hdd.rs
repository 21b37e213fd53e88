//! Mechanical HDD model: seek + rotational latency + media transfer, with
//! head-position tracking so genuinely contiguous streams pay no seek.

use simdes::{Resource, SimTime};

use crate::lse::LseModel;
use crate::stats::DeviceStats;
use crate::{IoKind, IoOp, Pattern};

/// HDD configuration. Defaults model a 7200 rpm nearline SATA drive like
/// the 2 TB units in the paper's HDD cluster (capacity scaled down).
#[derive(Debug, Clone)]
pub struct HddConfig {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Shortest (track-to-track) seek.
    pub min_seek: SimTime,
    /// Full-stroke seek across the whole capacity.
    pub full_seek: SimTime,
    /// Average rotational delay (half a revolution; 4.17 ms at 7200 rpm).
    pub rotational_delay: SimTime,
    /// Sustained media transfer rate, bytes per second.
    pub transfer_bandwidth: u64,
    /// Fixed controller/command overhead per op.
    pub command_overhead: SimTime,
}

impl Default for HddConfig {
    fn default() -> Self {
        HddConfig {
            capacity: 8 << 30, // 8 GiB (scaled-down 2 TB)
            min_seek: simdes::units::MILLIS / 2,
            full_seek: 13 * simdes::units::MILLIS,
            rotational_delay: 4_170 * simdes::units::MICROS,
            transfer_bandwidth: 180_000_000,
            command_overhead: 50 * simdes::units::MICROS,
        }
    }
}

/// The HDD device: one actuator (single-server queue), head tracking,
/// statistics.
#[derive(Debug, Clone)]
pub struct Hdd {
    cfg: HddConfig,
    queue: Resource,
    stats: DeviceStats,
    head: u64,
    /// End offset of the most recent sequential op (the log stream).
    seq_end: u64,
    written: Vec<u64>,
    /// Overwrite-bitmap granularity (bytes per bit).
    grain: u64,
    /// Latent-sector-error oracle, if installed.
    lse: Option<LseModel>,
}

impl Hdd {
    /// Builds an HDD from its configuration.
    pub fn new(cfg: HddConfig) -> Hdd {
        let grain = 4096;
        let bits = cfg.capacity.div_ceil(grain) as usize;
        Hdd {
            queue: Resource::new(1),
            stats: DeviceStats::default(),
            head: 0,
            seq_end: 0,
            written: vec![0; bits.div_ceil(64)],
            grain,
            lse: None,
            cfg,
        }
    }

    /// HDD with default configuration.
    pub fn with_defaults() -> Hdd {
        Hdd::new(HddConfig::default())
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.cfg.capacity
    }

    /// Device configuration.
    pub fn config(&self) -> &HddConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Total busy time booked on the device.
    pub fn busy_time(&self) -> u64 {
        self.queue.busy_time()
    }

    /// Installs (or replaces) the latent-sector-error oracle.
    pub fn install_lse(&mut self, model: LseModel) {
        self.lse = Some(model);
    }

    /// The latent-sector-error oracle, if installed.
    pub fn lse(&self) -> Option<&LseModel> {
        self.lse.as_ref()
    }

    /// Mutable access to the latent-sector-error oracle.
    pub fn lse_mut(&mut self) -> Option<&mut LseModel> {
        self.lse.as_mut()
    }

    /// Seek time for a head movement of `distance` bytes, scaled by the
    /// square root of relative distance (classic seek-curve shape).
    pub fn seek_time(&self, distance: u64) -> SimTime {
        if distance == 0 {
            return 0;
        }
        let frac = (distance as f64 / self.cfg.capacity as f64).min(1.0);
        let range = (self.cfg.full_seek - self.cfg.min_seek) as f64;
        self.cfg.min_seek + (range * frac.sqrt()) as SimTime
    }

    /// Service time if the op were issued with the head at `head` and the
    /// device's log stream last ending at `seq_end`.
    ///
    /// Sequential ops that continue either position stream are free of
    /// positioning; sequential ops that jump (e.g. resuming a log after
    /// data I/O moved the head) pay only a short seek — the drive's write
    /// cache and elevator absorb the rotational delay for streamed writes.
    /// Random ops pay the full seek + rotation.
    pub fn service_time_at(&self, op: &IoOp, head: u64, seq_end: u64) -> SimTime {
        let transfer = op.len * simdes::units::SECS / self.cfg.transfer_bandwidth;
        let positioning = match op.pattern {
            Pattern::Sequential if op.offset == head || op.offset == seq_end => 0,
            Pattern::Sequential => self.cfg.min_seek,
            Pattern::Random => self.seek_time(op.offset.abs_diff(head)) + self.cfg.rotational_delay,
        };
        self.cfg.command_overhead + positioning + transfer
    }

    /// Submits an I/O; returns its completion time and advances the head.
    ///
    /// # Panics
    /// Panics if the op exceeds the device capacity or has zero length.
    pub fn submit(&mut self, now: SimTime, op: IoOp) -> SimTime {
        assert!(op.len > 0, "zero-length I/O");
        assert!(
            op.len <= self.cfg.capacity && op.offset <= self.cfg.capacity - op.len,
            "I/O beyond device capacity"
        );
        let service = self.service_time_at(&op, self.head, self.seq_end);
        self.head = op.offset + op.len;
        if op.pattern == Pattern::Sequential {
            self.seq_end = op.offset + op.len;
        }
        match op.kind {
            IoKind::Read => {
                self.stats.reads.record(op.len);
                if op.pattern == Pattern::Random {
                    self.stats.random_reads.record(op.len);
                }
            }
            IoKind::Write => {
                self.stats.writes.record(op.len);
                self.stats.wear_bytes += op.len;
                if op.pattern == Pattern::Random {
                    self.stats.random_writes.record(op.len);
                }
                let first = op.offset / self.grain;
                let last = (op.offset + op.len - 1) / self.grain;
                let mut over = 0u64;
                for g in first..=last {
                    let (w, b) = ((g / 64) as usize, g % 64);
                    if self.written[w] >> b & 1 == 1 {
                        let gs = g * self.grain;
                        let ge = gs + self.grain;
                        over += (op.offset + op.len).min(ge) - op.offset.max(gs);
                    } else {
                        self.written[w] |= 1 << b;
                    }
                }
                if over > 0 {
                    self.stats.overwrites.record(over);
                }
            }
        }
        self.queue.reserve(now, service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdes::units::MILLIS;

    #[test]
    fn sequential_stream_avoids_seeks() {
        let mut hdd = Hdd::with_defaults();
        // Position the head.
        hdd.submit(0, IoOp::write(0, 4096, Pattern::Sequential));
        let t1 = hdd.submit(0, IoOp::write(4096, 4096, Pattern::Sequential));
        let t2 = hdd.submit(0, IoOp::write(8192, 4096, Pattern::Sequential));
        // Appends after the first should each take well under a millisecond.
        assert!(t2 - t1 < MILLIS, "append cost {} ns", t2 - t1);
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let hdd = Hdd::with_defaults();
        let t = hdd.service_time_at(&IoOp::read(4 << 30, 4096, Pattern::Random), 0, 0);
        assert!(t > 8 * MILLIS, "far random read was {t} ns");
    }

    #[test]
    fn seek_time_monotonic_in_distance() {
        let hdd = Hdd::with_defaults();
        let near = hdd.seek_time(1 << 20);
        let mid = hdd.seek_time(1 << 30);
        let far = hdd.seek_time(8 << 30);
        assert!(near < mid && mid < far);
        assert_eq!(hdd.seek_time(0), 0);
        assert!(far <= hdd.config().full_seek);
    }

    #[test]
    fn single_actuator_serialises() {
        let mut hdd = Hdd::with_defaults();
        let t1 = hdd.submit(0, IoOp::read(0, 4096, Pattern::Random));
        let t2 = hdd.submit(0, IoOp::read(1 << 30, 4096, Pattern::Random));
        assert!(t2 > t1, "second op must queue behind the first");
    }

    #[test]
    fn overwrite_accounting() {
        let mut hdd = Hdd::with_defaults();
        hdd.submit(0, IoOp::write(0, 8192, Pattern::Sequential));
        assert_eq!(hdd.stats().overwrites.ops, 0);
        hdd.submit(0, IoOp::write(0, 8192, Pattern::Random));
        assert_eq!(hdd.stats().overwrites.ops, 1);
        assert_eq!(hdd.stats().overwrites.bytes, 8192);
        assert_eq!(hdd.stats().erases, 0, "HDDs have no erase cycles");
    }

    #[test]
    fn wear_tracks_host_write_volume() {
        let mut hdd = Hdd::with_defaults();
        hdd.submit(0, IoOp::write(0, 8192, Pattern::Sequential));
        hdd.submit(0, IoOp::read(0, 1 << 20, Pattern::Sequential));
        hdd.submit(0, IoOp::write(0, 4096, Pattern::Random));
        // Magnetic media has no write amplification: wear = host bytes.
        assert_eq!(hdd.stats().wear_bytes, 8192 + 4096);
        assert_eq!(hdd.stats().wear_bytes, hdd.stats().writes.bytes);
    }

    #[test]
    #[should_panic(expected = "beyond device capacity")]
    fn io_wrapping_the_address_space_rejected() {
        let mut hdd = Hdd::with_defaults();
        hdd.submit(0, IoOp::read(u64::MAX - 100, 4096, Pattern::Random));
    }

    #[test]
    fn jump_breaks_sequentiality() {
        let mut hdd = Hdd::with_defaults();
        hdd.submit(0, IoOp::write(0, 4096, Pattern::Sequential));
        // A sequential-pattern op at a non-contiguous offset pays a short
        // repositioning seek (the write cache absorbs the rotation)...
        let before = hdd.busy_time();
        hdd.submit(0, IoOp::write(1 << 30, 4096, Pattern::Sequential));
        let cost = hdd.busy_time() - before;
        assert!(
            cost >= hdd.config().min_seek,
            "jump must pay a seek: {cost}"
        );
        // ...while a random op at a far offset pays seek + rotation.
        let before = hdd.busy_time();
        hdd.submit(0, IoOp::write(4 << 30, 4096, Pattern::Random));
        let cost_rand = hdd.busy_time() - before;
        assert!(
            cost_rand > 4 * MILLIS,
            "random op must seek+rotate: {cost_rand}"
        );
    }
}
