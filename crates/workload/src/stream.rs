//! Timed op streams: the open-loop unit of exchange between generators,
//! trace importers, and the replay engine.
//!
//! A [`TimedStream`] is a time-sorted sequence of `(client, op)` pairs
//! whose `op.at_ns` is an **absolute arrival time** — the moment the op is
//! offered to the cluster regardless of what else is in flight. Imported
//! traces (`traces::io::msr_to_ops`, `traces::io::ali_to_ops`) convert
//! into one with their real timestamps preserved; synthetic specs yield
//! the same pairs lazily ([`crate::ArrivalSource`]).

use std::collections::HashSet;

use traces::workload::SLOT;
use traces::{OpKind, TraceOp};

/// One offered op: the arrival schedule lives in `op.at_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOp {
    /// The issuing client (u64: populations can exceed `usize` indexing
    /// conventions — sparse runtimes key on the id, never index by it).
    pub client: u64,
    /// The op, with `at_ns` as its absolute arrival time.
    pub op: TraceOp,
}

/// A time-sorted stream of offered ops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimedStream {
    ops: Vec<TimedOp>,
}

impl TimedStream {
    /// Wraps a pre-built op list.
    ///
    /// # Panics
    /// Panics if arrival times are not non-decreasing — a mis-sorted
    /// stream would silently reorder the offered load.
    pub fn new(ops: Vec<TimedOp>) -> TimedStream {
        assert!(
            ops.windows(2).all(|w| w[0].op.at_ns <= w[1].op.at_ns),
            "timed stream must be sorted by arrival time"
        );
        TimedStream { ops }
    }

    /// All ops issued by one client, timestamps taken from the ops
    /// themselves (e.g. straight out of `msr_to_ops`/`ali_to_ops`).
    pub fn single_client(client: u64, ops: Vec<TraceOp>) -> TimedStream {
        Self::new(ops.into_iter().map(|op| TimedOp { client, op }).collect())
    }

    /// Shards an imported op list over `clients` clients round-robin,
    /// preserving every op's real arrival time.
    ///
    /// # Panics
    /// Panics if `clients == 0`.
    pub fn round_robin(clients: u64, ops: Vec<TraceOp>) -> TimedStream {
        assert!(clients > 0, "round_robin over zero clients");
        Self::new(
            ops.into_iter()
                .enumerate()
                .map(|(i, op)| TimedOp {
                    client: i as u64 % clients,
                    op,
                })
                .collect(),
        )
    }

    /// The ops, in arrival order.
    pub fn ops(&self) -> &[TimedOp] {
        &self.ops
    }

    /// Number of offered ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The last arrival time (the schedule horizon), 0 when empty.
    pub fn horizon_ns(&self) -> u64 {
        self.ops.last().map(|t| t.op.at_ns).unwrap_or(0)
    }

    /// Compresses (factor > 1) or stretches (factor < 1) the arrival
    /// schedule — replaying a day-long trace at 100× its real rate is
    /// `scale_rate(100.0)`. Op content is untouched.
    ///
    /// # Panics
    /// Panics unless `factor` is finite and positive.
    pub fn scale_rate(mut self, factor: f64) -> TimedStream {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rate factor must be finite and positive"
        );
        for t in &mut self.ops {
            t.op.at_ns = (t.op.at_ns as f64 / factor) as u64;
        }
        self
    }

    /// Remaps offsets into a `volume_bytes` logical volume (slot-aligned
    /// modulo wrap) and **re-runs first-touch Write/Update classification**
    /// per `(client, slot)` on the remapped addresses: wrapping can alias
    /// two distinct raw slots onto one volume slot, so the imported
    /// classification no longer matches what the replay engine's volumes
    /// will observe. Reads stay reads.
    ///
    /// # Panics
    /// Panics if `volume_bytes` is below one slot or an op is longer than
    /// the volume.
    pub fn fit_to_volume(mut self, volume_bytes: u64) -> TimedStream {
        assert!(volume_bytes >= SLOT, "volume below one slot");
        let total_slots = volume_bytes / SLOT;
        let mut written: HashSet<(u64, u64)> = HashSet::new();
        for t in &mut self.ops {
            let len = t.op.len.max(1) as u64;
            let len_slots = len.div_ceil(SLOT);
            assert!(
                len_slots <= total_slots,
                "op of {len} bytes cannot fit a {volume_bytes}-byte volume"
            );
            // The wrap is length-independent (modulo the volume, then clamp
            // long ops back from the edge) so ops at the same raw offset
            // stay aliased to the same volume slot regardless of length —
            // the overlap structure the trace recorded survives the remap.
            let max_start = total_slots - len_slots;
            let slot = ((t.op.offset / SLOT) % total_slots).min(max_start);
            t.op.offset = slot * SLOT;
            if t.op.kind != OpKind::Read {
                t.op.kind =
                    traces::io::classify_write(&mut written, t.client, t.op.offset, t.op.len);
            }
        }
        self
    }

    /// Validates the stream against the replay population and volume:
    /// sorted arrivals, known clients, positive lengths, ops inside the
    /// volume.
    pub fn validate(&self, clients: u64, volume_bytes: u64) -> Result<(), String> {
        if self.ops.is_empty() {
            return Err("timed stream is empty".into());
        }
        let mut last = 0u64;
        for (i, t) in self.ops.iter().enumerate() {
            if t.op.at_ns < last {
                return Err(format!("op {i} arrives before its predecessor"));
            }
            last = t.op.at_ns;
            if t.client >= clients {
                return Err(format!(
                    "op {i} targets client {} but the cluster has {clients} clients",
                    t.client
                ));
            }
            if t.op.len == 0 {
                return Err(format!("op {i} has zero length"));
            }
            if t.op.end() > volume_bytes {
                return Err(format!(
                    "op {i} ends at {} beyond the {volume_bytes}-byte volume \
                     (use fit_to_volume to remap imported traces)",
                    t.op.end()
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(at_ns: u64, offset: u64, len: u32, kind: OpKind) -> TraceOp {
        TraceOp {
            at_ns,
            offset,
            len,
            kind,
        }
    }

    #[test]
    fn single_client_and_round_robin_preserve_timestamps() {
        let ops = vec![
            op(10, 0, 4096, OpKind::Write),
            op(20, 4096, 4096, OpKind::Update),
            op(35, 0, 4096, OpKind::Read),
        ];
        let s = TimedStream::single_client(2, ops.clone());
        assert_eq!(s.len(), 3);
        assert_eq!(s.horizon_ns(), 35);
        assert!(s.ops().iter().all(|t| t.client == 2));

        let rr = TimedStream::round_robin(2, ops);
        assert_eq!(
            rr.ops().iter().map(|t| t.client).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
        assert_eq!(rr.horizon_ns(), 35);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_stream_rejected() {
        TimedStream::new(vec![
            TimedOp {
                client: 0,
                op: op(20, 0, 4096, OpKind::Write),
            },
            TimedOp {
                client: 0,
                op: op(10, 0, 4096, OpKind::Write),
            },
        ]);
    }

    #[test]
    fn scale_rate_compresses_the_schedule() {
        let s = TimedStream::single_client(
            0,
            vec![
                op(1_000_000, 0, 4096, OpKind::Write),
                op(2_000_000, 4096, 4096, OpKind::Write),
            ],
        )
        .scale_rate(100.0);
        assert_eq!(s.ops()[0].op.at_ns, 10_000);
        assert_eq!(s.horizon_ns(), 20_000);
    }

    #[test]
    fn fit_to_volume_wraps_and_reclassifies() {
        let vol = 16 * SLOT;
        let s = TimedStream::single_client(
            0,
            vec![
                // Raw slot 100 wraps onto slot 100 % 16 = 4 (len 2 slots).
                op(0, 100 * SLOT, 2 * SLOT as u32, OpKind::Write),
                // Raw slot 20 also wraps to slot 4: aliased, so the fresh
                // Write becomes an Update of the wrapped slot.
                op(5, 20 * SLOT, SLOT as u32, OpKind::Write),
                // Raw slot 5 maps to written slot 5: Update stays.
                op(9, 5 * SLOT, SLOT as u32, OpKind::Update),
                // An imported Update landing on a never-written volume slot
                // is a first touch here: reclassified to Write.
                op(11, 7 * SLOT, SLOT as u32, OpKind::Update),
                // Reads never reclassify.
                op(12, 999 * SLOT, SLOT as u32, OpKind::Read),
                // Same raw offset as the first op but a different length:
                // the wrap is length-independent, so it still aliases onto
                // slot 4 and classifies as the overwrite the trace recorded.
                op(13, 100 * SLOT, SLOT as u32, OpKind::Write),
            ],
        )
        .fit_to_volume(vol);
        let kinds: Vec<OpKind> = s.ops().iter().map(|t| t.op.kind).collect();
        assert_eq!(
            kinds,
            vec![
                OpKind::Write,
                OpKind::Update,
                OpKind::Update,
                OpKind::Write,
                OpKind::Read,
                OpKind::Update
            ]
        );
        for t in s.ops() {
            assert!(t.op.end() <= vol, "{t:?} beyond volume");
            assert_eq!(t.op.offset % SLOT, 0);
        }
        s.validate(1, vol).unwrap();
    }

    #[test]
    fn validate_catches_bad_streams() {
        let good = TimedStream::single_client(0, vec![op(0, 0, 4096, OpKind::Write)]);
        assert!(good.validate(1, 1 << 20).is_ok());
        assert!(good.validate(0, 1 << 20).is_err(), "client out of range");
        let far = TimedStream::single_client(0, vec![op(0, 1 << 30, 4096, OpKind::Write)]);
        assert!(far.validate(1, 1 << 20).is_err(), "op beyond volume");
        assert!(TimedStream::default().validate(1, 1 << 20).is_err());
    }
}
