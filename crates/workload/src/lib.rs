//! Open-loop offered load: arrival processes, skewed client populations,
//! and timed op streams.
//!
//! Everything the replay engine ran before this crate was **closed-loop**:
//! each client issues its next op the instant the previous one completes,
//! so the offered rate self-throttles to whatever the cluster sustains and
//! the queueing collapse that separates update methods under real load can
//! never appear. This crate generates **open-loop** load — ops arrive on
//! their own schedule whether or not earlier ops finished — in three
//! composable pieces:
//!
//! * [`arrival`] — *when* ops arrive: a base point process
//!   ([`BaseProcess::Poisson`] or [`BaseProcess::Periodic`]) modulated by a
//!   [`RateCurve`] (constant, bursty on/off, diurnal), so "Poisson at
//!   20 kop/s in 30 % duty bursts" is one spec;
//! * [`skew`] — *who* issues them: [`ClientSkew`] draws the issuing client
//!   per arrival (uniform, Zipfian hot clients, hot-spot subsets) and
//!   [`OffsetSkew`] reshapes each client's address locality (family
//!   default, tightened hot ranges, flattened uniform);
//! * [`source`] / [`stream`] — *what* arrives: `(client, op)` pairs
//!   carrying absolute arrival timestamps. A synthetic spec yields them
//!   lazily from an [`ArrivalSource`] ([`OpenLoopSpec::source`]); imported
//!   real traces (`traces::io::msr_to_ops`, `traces::io::ali_to_ops`)
//!   convert into a [`TimedStream`] with their *real* arrival times
//!   preserved.
//!
//! The replay engine consumes a [`TimedStream`] with a bounded
//! outstanding-op window per client and an admission queue, and reports
//! offered-vs-acked throughput (goodput), queue-delay percentiles, and a
//! saturation flag — see `ecfs::replay`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod skew;
pub mod source;
pub mod stream;

pub use arrival::{ArrivalGen, BaseProcess, RateCurve};
pub use skew::{ClientPicker, ClientSkew, OffsetSkew};
pub use source::ArrivalSource;
pub use stream::{TimedOp, TimedStream};

use traces::WorkloadParams;

/// A complete open-loop load specification: arrival process × client skew
/// × offset skew × per-client concurrency window.
///
/// The `rate` is the **aggregate** offered rate over the whole client
/// population, in ops per second.
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// The base point process gaps are drawn from.
    pub process: BaseProcess,
    /// The (possibly time-varying) aggregate arrival rate.
    pub rate: RateCurve,
    /// How the issuing client is drawn per arrival.
    pub client_skew: ClientSkew,
    /// How each client's address locality is reshaped.
    pub offset_skew: OffsetSkew,
    /// Maximum ops a client keeps outstanding; arrivals beyond it wait in
    /// the admission queue (their wait is the measured queue delay).
    pub window: usize,
}

impl OpenLoopSpec {
    /// Poisson arrivals at a constant aggregate `ops_per_s`, uniform
    /// clients, family-default locality, window 4.
    pub fn poisson(ops_per_s: f64) -> OpenLoopSpec {
        OpenLoopSpec {
            process: BaseProcess::Poisson,
            rate: RateCurve::Constant { ops_per_s },
            client_skew: ClientSkew::Uniform,
            offset_skew: OffsetSkew::Family,
            window: 4,
        }
    }

    /// Deterministic (periodic) arrivals at a constant aggregate
    /// `ops_per_s`; otherwise as [`Self::poisson`].
    pub fn periodic(ops_per_s: f64) -> OpenLoopSpec {
        OpenLoopSpec {
            process: BaseProcess::Periodic,
            ..Self::poisson(ops_per_s)
        }
    }

    /// Replaces the rate curve (builder-style).
    pub fn with_rate(mut self, rate: RateCurve) -> OpenLoopSpec {
        self.rate = rate;
        self
    }

    /// Replaces the base process (builder-style).
    pub fn with_process(mut self, process: BaseProcess) -> OpenLoopSpec {
        self.process = process;
        self
    }

    /// Replaces the client-skew model (builder-style).
    pub fn with_client_skew(mut self, skew: ClientSkew) -> OpenLoopSpec {
        self.client_skew = skew;
        self
    }

    /// Replaces the offset-skew model (builder-style).
    pub fn with_offset_skew(mut self, skew: OffsetSkew) -> OpenLoopSpec {
        self.offset_skew = skew;
        self
    }

    /// Replaces the per-client outstanding-op window (builder-style).
    pub fn with_window(mut self, window: usize) -> OpenLoopSpec {
        self.window = window;
        self
    }

    /// Validates every component of the spec.
    pub fn validate(&self) -> Result<(), String> {
        self.rate.validate()?;
        self.client_skew.validate()?;
        self.offset_skew.validate()?;
        if self.window == 0 {
            return Err("open-loop window must admit at least one op".into());
        }
        Ok(())
    }

    /// Builds a lazy [`ArrivalSource`] yielding `total_ops` arrivals over
    /// `clients` clients — the O(active-memory) path the replay engine
    /// pulls from one op at a time.
    ///
    /// Deterministic in `(spec, base, clients, total_ops, seed)`. Op
    /// *content* comes from one `traces::WorkloadGen` per client seeded
    /// `seed + client` — the same seeding the closed-loop replay uses, so
    /// an open-loop run at low rate replays statistically the same ops as
    /// its closed-loop twin. Arrival times and client picks come from
    /// seed-salted side streams so they perturb neither the content nor
    /// each other.
    ///
    /// # Panics
    /// Panics if the spec or `base` fail validation, or `clients == 0`.
    pub fn source(
        &self,
        base: &WorkloadParams,
        clients: u64,
        total_ops: u64,
        seed: u64,
    ) -> ArrivalSource {
        ArrivalSource::new(self, base, clients, total_ops, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traces::OpKind;

    const VOL: u64 = 64 << 20;

    fn base() -> WorkloadParams {
        WorkloadParams::ali_cloud(VOL)
    }

    /// Every arrival of `spec`'s source, collected into a stream.
    fn collect(spec: &OpenLoopSpec, clients: u64, total_ops: u64, seed: u64) -> TimedStream {
        TimedStream::new(spec.source(&base(), clients, total_ops, seed).collect())
    }

    #[test]
    fn spec_validates() {
        assert!(OpenLoopSpec::poisson(10_000.0).validate().is_ok());
        assert!(OpenLoopSpec::poisson(0.0).validate().is_err());
        assert!(OpenLoopSpec::poisson(1.0)
            .with_window(0)
            .validate()
            .is_err());
    }

    #[test]
    fn source_is_deterministic() {
        let spec =
            OpenLoopSpec::poisson(50_000.0).with_client_skew(ClientSkew::Zipf { theta: 0.9 });
        let a = collect(&spec, 8, 2000, 42);
        let b = collect(&spec, 8, 2000, 42);
        assert_eq!(a, b);
        let c = collect(&spec, 8, 2000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn source_produces_sorted_valid_stream() {
        let spec = OpenLoopSpec::poisson(20_000.0);
        let s = collect(&spec, 4, 1000, 7);
        assert_eq!(s.len(), 1000);
        s.validate(4, VOL).unwrap();
        // Arrival times strictly increase (gaps are clamped to >= 1 ns).
        let ats: Vec<u64> = s.ops().iter().map(|t| t.op.at_ns).collect();
        assert!(ats.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn source_rate_is_close_to_spec() {
        let spec = OpenLoopSpec::poisson(100_000.0);
        let s = collect(&spec, 8, 10_000, 11);
        let secs = s.horizon_ns() as f64 / 1e9;
        let rate = s.len() as f64 / secs;
        assert!(
            (rate - 100_000.0).abs() / 100_000.0 < 0.05,
            "offered rate {rate:.0} drifted from 100k"
        );
    }

    #[test]
    fn zipf_clients_concentrate_arrivals() {
        let spec =
            OpenLoopSpec::poisson(50_000.0).with_client_skew(ClientSkew::Zipf { theta: 0.95 });
        let s = collect(&spec, 16, 8000, 3);
        let mut counts = [0usize; 16];
        for t in s.ops() {
            counts[t.client as usize] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        assert!(
            hottest > 8000 / 16 * 3,
            "hottest client drew only {hottest}/8000 arrivals"
        );
        // Client 0 is the Zipf head.
        assert_eq!(counts[0], hottest);
    }

    #[test]
    fn lazy_equals_eager_across_all_specs() {
        // A source pulled one op at a time, with its state inspected
        // between pulls, yields the exact op sequence an independent source
        // collected in one go does — byte for byte — for every
        // BaseProcess × RateCurve × ClientSkew × OffsetSkew combination.
        let processes = [BaseProcess::Poisson, BaseProcess::Periodic];
        let rates = [
            RateCurve::Constant {
                ops_per_s: 40_000.0,
            },
            RateCurve::OnOff {
                on_ops_per_s: 80_000.0,
                off_ops_per_s: 0.0,
                period_ns: 2_000_000,
                duty: 0.3,
            },
            RateCurve::Diurnal {
                peak_ops_per_s: 60_000.0,
                trough_ops_per_s: 10_000.0,
                period_ns: 4_000_000,
            },
        ];
        let client_skews = [
            ClientSkew::Uniform,
            ClientSkew::Zipf { theta: 0.9 },
            ClientSkew::HotSpot {
                hot_fraction: 0.1,
                hot_share: 0.8,
            },
        ];
        let offset_skews = [
            OffsetSkew::Family,
            OffsetSkew::HotRange {
                hot_fraction: 0.05,
                access_fraction: 0.95,
            },
            OffsetSkew::Uniform,
        ];
        for process in processes {
            for rate in &rates {
                for cs in client_skews {
                    for os in offset_skews {
                        let spec = OpenLoopSpec::poisson(1.0)
                            .with_process(process)
                            .with_rate(rate.clone())
                            .with_client_skew(cs)
                            .with_offset_skew(os);
                        let eager: Vec<TimedOp> = spec.source(&base(), 32, 400, 99).collect();
                        let mut source = spec.source(&base(), 32, 400, 99);
                        let mut lazy = Vec::new();
                        while source.remaining() > 0 {
                            let left = source.remaining();
                            lazy.push(source.next().expect("remaining ops are yielded"));
                            assert_eq!(source.remaining(), left - 1);
                        }
                        assert_eq!(
                            eager, lazy,
                            "lazy != eager for {process:?} × {rate:?} × {cs:?} × {os:?}"
                        );
                        assert_eq!(source.remaining(), 0);
                        assert!(source.next().is_none(), "source must be exhausted");
                        // Generators exist only for clients that issued ops.
                        let touched: std::collections::HashSet<u64> =
                            lazy.iter().map(|t| t.client).collect();
                        assert_eq!(source.touched_clients(), touched.len() as u64);
                        assert!(source.state_bytes() > 0);
                    }
                }
            }
        }
    }

    #[test]
    fn source_scales_setup_to_touched_clients_not_population() {
        // A million-client spec must stand up instantly and hold state for
        // the handful of clients that actually issued ops.
        let spec =
            OpenLoopSpec::poisson(50_000.0).with_client_skew(ClientSkew::Zipf { theta: 0.9 });
        let mut source = spec.source(&base(), 1_000_000, 500, 7);
        let ops: Vec<TimedOp> = source.by_ref().collect();
        assert_eq!(ops.len(), 500);
        assert!(source.touched_clients() <= 500);
        assert!(
            source.touched_clients() < 1_000_000 / 100,
            "touched {} clients — state is not O(active)",
            source.touched_clients()
        );
        // Tail clients past the alias head must still be reachable.
        assert!(
            ops.iter().any(|t| t.client >= 1024),
            "no tail client ever picked"
        );
    }

    #[test]
    fn uniform_offset_skew_flattens_locality() {
        let spec = OpenLoopSpec::poisson(50_000.0).with_offset_skew(OffsetSkew::Uniform);
        let s = collect(&spec, 2, 4000, 9);
        // With locality flattened, update/read offsets spread over the
        // whole written region instead of piling into the 10 % hot set.
        let mut hits = std::collections::HashSet::new();
        for t in s.ops() {
            if t.op.kind == OpKind::Update {
                hits.insert(t.op.offset >> 12);
            }
        }
        assert!(
            hits.len() > 500,
            "only {} distinct update slots",
            hits.len()
        );
    }
}
