//! Open-loop offered load: a rate curve, a client skew, and the lazy
//! arrival schedule they define.
//!
//! Closed-loop replay (`ecfs::replay`'s default) issues each client's next
//! op the instant the previous one completes, so the offered rate
//! self-throttles to whatever the cluster sustains and the queueing
//! collapse that separates update methods under real load never appears.
//! This crate generates **open-loop** load — ops arrive on their own
//! schedule whether or not earlier ops finished — from one
//! [`OpenLoopSpec`]:
//!
//! * [`arrival`] — *when* ops arrive: Poisson gaps at the rate a
//!   [`RateCurve`] gives (constant, bursty on/off, diurnal), so "Poisson at
//!   20 kop/s in 30 % duty bursts" is one spec;
//! * [`skew`] — *who* issues them: [`ClientSkew`] draws the issuing client
//!   per arrival (uniform or Zipfian hot clients);
//! * [`source`] — *what* arrives: [`OpenLoopSpec::source`] yields
//!   [`TimedOp`]s, `(client, op)` pairs stamped with absolute arrival
//!   times, lazily from an [`ArrivalSource`]. Op content comes from the
//!   trace family's `traces::WorkloadGen`, one per touched client.
//!
//! The replay engine pulls from the [`ArrivalSource`] one op ahead, holds
//! a bounded outstanding-op window per client behind an admission queue,
//! and reports offered-vs-acked throughput (goodput), queue-delay
//! percentiles, and a saturation flag — see `ecfs::replay`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod skew;
pub mod source;

pub use arrival::RateCurve;
pub use skew::ClientSkew;
pub use source::{ArrivalSource, TimedOp};

use traces::WorkloadParams;

/// A complete open-loop load specification: rate curve × client skew ×
/// per-client concurrency window.
///
/// The `rate` is the **aggregate** offered rate over the whole client
/// population, in ops per second.
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// The (possibly time-varying) aggregate arrival rate.
    pub rate: RateCurve,
    /// How the issuing client is drawn per arrival.
    pub client_skew: ClientSkew,
    /// Maximum ops a client keeps outstanding; arrivals beyond it wait in
    /// the admission queue (their wait is the measured queue delay).
    pub window: usize,
}

impl OpenLoopSpec {
    /// Poisson arrivals at a constant aggregate `ops_per_s`, uniform
    /// clients, window 4.
    pub fn poisson(ops_per_s: f64) -> OpenLoopSpec {
        OpenLoopSpec {
            rate: RateCurve::Constant { ops_per_s },
            client_skew: ClientSkew::Uniform,
            window: 4,
        }
    }

    /// Replaces the rate curve (builder-style).
    pub fn with_rate(mut self, rate: RateCurve) -> OpenLoopSpec {
        self.rate = rate;
        self
    }

    /// Replaces the client-skew model (builder-style).
    pub fn with_client_skew(mut self, skew: ClientSkew) -> OpenLoopSpec {
        self.client_skew = skew;
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

    const VOL: u64 = 64 << 20;

    fn base() -> WorkloadParams {
        WorkloadParams::ali_cloud(VOL)
    }

    /// Every arrival of `spec`'s source, in arrival order.
    fn collect(spec: &OpenLoopSpec, clients: u64, total_ops: u64, seed: u64) -> Vec<TimedOp> {
        spec.source(&base(), clients, total_ops, seed).collect()
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
        // Arrival times strictly increase (gaps are clamped to >= 1 ns).
        assert!(s.windows(2).all(|w| w[0].op.at_ns < w[1].op.at_ns));
        for t in &s {
            assert!(t.client < 4, "{t:?} names a client outside 0..4");
            assert!(t.op.len > 0, "{t:?} has zero length");
            assert!(t.op.end() <= VOL, "{t:?} ends beyond the volume");
        }
    }

    #[test]
    fn source_rate_is_close_to_spec() {
        let spec = OpenLoopSpec::poisson(100_000.0);
        let s = collect(&spec, 8, 10_000, 11);
        let secs = s.last().unwrap().op.at_ns as f64 / 1e9;
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
        for t in &s {
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
        // RateCurve × ClientSkew combination.
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
        let client_skews = [ClientSkew::Uniform, ClientSkew::Zipf { theta: 0.9 }];
        for rate in &rates {
            for cs in client_skews {
                let spec = OpenLoopSpec::poisson(1.0)
                    .with_rate(rate.clone())
                    .with_client_skew(cs);
                let eager: Vec<TimedOp> = spec.source(&base(), 32, 400, 99).collect();
                let mut source = spec.source(&base(), 32, 400, 99);
                let mut lazy = Vec::new();
                while source.remaining() > 0 {
                    let left = source.remaining();
                    lazy.push(source.next().expect("remaining ops are yielded"));
                    assert_eq!(source.remaining(), left - 1);
                }
                assert_eq!(eager, lazy, "lazy != eager for {rate:?} × {cs:?}");
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
}
