//! Arrival times: Poisson gaps drawn at the rate a [`RateCurve`] gives.
//!
//! [`RateCurve`] decides the *intensity* over time (constant, bursty
//! on/off, diurnal); each gap is exponential at the instantaneous rate at
//! the moment of the draw. That is the standard rate-function
//! approximation of a non-homogeneous Poisson process: exact for constant
//! curves, O(1) per arrival and fully deterministic under a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Rates at or below this (ops/s) are treated as "off": the generator
/// skips forward to the next active stretch instead of drawing a
/// near-infinite gap.
const MIN_ACTIVE_RATE: f64 = 1e-3;

/// The aggregate arrival rate as a function of time, in ops per second.
#[derive(Debug, Clone, PartialEq)]
pub enum RateCurve {
    /// A flat rate.
    Constant {
        /// Aggregate arrival rate (ops/s).
        ops_per_s: f64,
    },
    /// A square wave: `on_ops_per_s` for the first `duty` fraction of every
    /// `period_ns`, `off_ops_per_s` (which may be 0) for the rest — bursty
    /// on/off traffic.
    OnOff {
        /// Rate inside the burst (ops/s; must exceed 0.001, at or below
        /// which the curve counts as off).
        on_ops_per_s: f64,
        /// Rate between bursts (ops/s; 0 silences the off phase).
        off_ops_per_s: f64,
        /// Full on+off cycle length in nanoseconds.
        period_ns: u64,
        /// Fraction of the period spent in the burst, in `(0, 1]`.
        duty: f64,
    },
    /// A raised-cosine day: rate swings smoothly between
    /// `trough_ops_per_s` (at phase 0) and `peak_ops_per_s` (at half
    /// period) — a diurnal load curve compressed to simulation scale.
    Diurnal {
        /// Rate at the top of the curve (ops/s).
        peak_ops_per_s: f64,
        /// Rate at the bottom of the curve (ops/s; may be 0).
        trough_ops_per_s: f64,
        /// Full cycle length in nanoseconds.
        period_ns: u64,
    },
}

impl RateCurve {
    /// The instantaneous rate at `t_ns`, in ops/s.
    pub fn rate_at(&self, t_ns: u64) -> f64 {
        match *self {
            RateCurve::Constant { ops_per_s } => ops_per_s,
            RateCurve::OnOff {
                on_ops_per_s,
                off_ops_per_s,
                period_ns,
                duty,
            } => {
                let phase = (t_ns % period_ns) as f64 / period_ns as f64;
                if phase < duty {
                    on_ops_per_s
                } else {
                    off_ops_per_s
                }
            }
            RateCurve::Diurnal {
                peak_ops_per_s,
                trough_ops_per_s,
                period_ns,
            } => {
                let phase = (t_ns % period_ns) as f64 / period_ns as f64;
                let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                trough_ops_per_s + (peak_ops_per_s - trough_ops_per_s) * swing
            }
        }
    }

    /// The rate averaged over one full cycle (the whole horizon for
    /// constant curves) — what a load sweep ramps.
    pub fn mean_rate(&self) -> f64 {
        match *self {
            RateCurve::Constant { ops_per_s } => ops_per_s,
            RateCurve::OnOff {
                on_ops_per_s,
                off_ops_per_s,
                duty,
                ..
            } => on_ops_per_s * duty + off_ops_per_s * (1.0 - duty),
            RateCurve::Diurnal {
                peak_ops_per_s,
                trough_ops_per_s,
                ..
            } => 0.5 * (peak_ops_per_s + trough_ops_per_s),
        }
    }

    /// Validates rates and shape parameters.
    pub fn validate(&self) -> Result<(), String> {
        let finite_nonneg = |name: &str, v: f64| -> Result<(), String> {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} = {v} must be finite and >= 0"));
            }
            Ok(())
        };
        match *self {
            RateCurve::Constant { ops_per_s } => finite_nonneg("ops_per_s", ops_per_s)?,
            RateCurve::OnOff {
                on_ops_per_s,
                off_ops_per_s,
                period_ns,
                duty,
            } => {
                finite_nonneg("on_ops_per_s", on_ops_per_s)?;
                finite_nonneg("off_ops_per_s", off_ops_per_s)?;
                // The generator hops over a silent off phase into the
                // burst, so the burst itself must be active.
                if on_ops_per_s <= MIN_ACTIVE_RATE {
                    return Err(format!(
                        "on_ops_per_s = {on_ops_per_s} must be above {MIN_ACTIVE_RATE}"
                    ));
                }
                if period_ns == 0 {
                    return Err("on/off period must be positive".into());
                }
                if !(duty > 0.0 && duty <= 1.0) {
                    return Err(format!("duty = {duty} must be in (0, 1]"));
                }
            }
            RateCurve::Diurnal {
                peak_ops_per_s,
                trough_ops_per_s,
                period_ns,
            } => {
                finite_nonneg("peak_ops_per_s", peak_ops_per_s)?;
                finite_nonneg("trough_ops_per_s", trough_ops_per_s)?;
                if period_ns == 0 {
                    return Err("diurnal period must be positive".into());
                }
                if peak_ops_per_s < trough_ops_per_s {
                    return Err("diurnal peak must be >= trough".into());
                }
            }
        }
        if self.mean_rate() <= MIN_ACTIVE_RATE {
            return Err("rate curve never rises above zero".into());
        }
        Ok(())
    }

    /// The earliest `t >= t_ns` at which the curve is active (rate above
    /// [`MIN_ACTIVE_RATE`]); used to hop over silent off phases.
    fn next_active(&self, t_ns: u64) -> u64 {
        if self.rate_at(t_ns) > MIN_ACTIVE_RATE {
            return t_ns;
        }
        match *self {
            // Unreachable after validate(), but stay total.
            RateCurve::Constant { .. } => t_ns,
            RateCurve::OnOff { period_ns, .. } => {
                // Inactive only in the off phase: hop to the next cycle.
                (t_ns / period_ns + 1) * period_ns
            }
            RateCurve::Diurnal { period_ns, .. } => {
                // The curve is smooth; step in 1/64-period increments until
                // it rises (bounded by one full period since the peak is
                // active).
                let step = (period_ns / 64).max(1);
                let mut t = t_ns;
                for _ in 0..=64 {
                    t += step;
                    if self.rate_at(t) > MIN_ACTIVE_RATE {
                        return t;
                    }
                }
                t
            }
        }
    }
}

/// A deterministic, seedable arrival-time generator: each call to
/// [`Self::next_ns`] returns the absolute nanosecond of the next arrival.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalGen {
    curve: RateCurve,
    rng: StdRng,
    clock_ns: u64,
}

impl ArrivalGen {
    /// Builds a generator starting at time 0.
    ///
    /// # Panics
    /// Panics if the curve fails validation.
    pub(crate) fn new(curve: RateCurve, seed: u64) -> ArrivalGen {
        curve.validate().expect("invalid rate curve");
        ArrivalGen {
            curve,
            rng: StdRng::seed_from_u64(seed),
            clock_ns: 0,
        }
    }

    /// The absolute time of the next arrival, in nanoseconds. Strictly
    /// increasing (gaps clamp to >= 1 ns).
    pub(crate) fn next_ns(&mut self) -> u64 {
        let t = self.curve.next_active(self.clock_ns);
        let mean_gap_ns = 1e9 / self.curve.rate_at(t);
        let u: f64 = self.rng.random::<f64>().max(1e-12);
        let gap = -u.ln() * mean_gap_ns;
        self.clock_ns = t.saturating_add((gap as u64).max(1));
        self.clock_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_validate() {
        assert!(RateCurve::Constant { ops_per_s: 1000.0 }.validate().is_ok());
        assert!(RateCurve::Constant { ops_per_s: 0.0 }.validate().is_err());
        assert!(RateCurve::Constant {
            ops_per_s: f64::NAN
        }
        .validate()
        .is_err());
        assert!(RateCurve::OnOff {
            on_ops_per_s: 1000.0,
            off_ops_per_s: 0.0,
            period_ns: 1_000_000,
            duty: 0.25,
        }
        .validate()
        .is_ok());
        assert!(RateCurve::OnOff {
            on_ops_per_s: 1000.0,
            off_ops_per_s: 0.0,
            period_ns: 0,
            duty: 0.25,
        }
        .validate()
        .is_err());
        assert!(RateCurve::Diurnal {
            peak_ops_per_s: 100.0,
            trough_ops_per_s: 200.0,
            period_ns: 1_000_000,
        }
        .validate()
        .is_err());
        // A silent burst: the mean rate is 500 ops/s, but the generator
        // would hop out of the off phase into a burst with no arrivals.
        assert!(RateCurve::OnOff {
            on_ops_per_s: 0.0,
            off_ops_per_s: 1000.0,
            period_ns: 1_000_000,
            duty: 0.5,
        }
        .validate()
        .is_err());
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let mut g = ArrivalGen::new(
            RateCurve::Constant {
                ops_per_s: 10_000.0,
            },
            42,
        );
        let n = 20_000;
        let mut last = 0;
        for _ in 0..n {
            last = g.next_ns();
        }
        let mean_gap = last as f64 / n as f64;
        // Mean gap should be ~100 µs within a few percent at n = 20k.
        assert!(
            (mean_gap - 100_000.0).abs() < 5_000.0,
            "mean gap {mean_gap:.0} ns"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let curve = RateCurve::Diurnal {
            peak_ops_per_s: 50_000.0,
            trough_ops_per_s: 1_000.0,
            period_ns: 10_000_000,
        };
        let mut a = ArrivalGen::new(curve.clone(), 7);
        let mut b = ArrivalGen::new(curve, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_ns(), b.next_ns());
        }
    }

    #[test]
    fn onoff_concentrates_arrivals_in_bursts() {
        let period = 1_000_000u64; // 1 ms cycle
        let mut g = ArrivalGen::new(
            RateCurve::OnOff {
                on_ops_per_s: 100_000.0,
                off_ops_per_s: 0.0,
                period_ns: period,
                duty: 0.3,
            },
            9,
        );
        let mut in_burst = 0;
        let n = 5_000;
        for _ in 0..n {
            let t = g.next_ns();
            let phase = (t % period) as f64 / period as f64;
            // The draw can land just past the burst edge (gap drawn at the
            // on-rate straddles the boundary); allow a small spill.
            if phase < 0.35 {
                in_burst += 1;
            }
        }
        assert!(
            in_burst > n * 9 / 10,
            "only {in_burst}/{n} arrivals in bursts"
        );
    }

    #[test]
    fn onoff_silent_phase_skips_forward() {
        let mut g = ArrivalGen::new(
            RateCurve::OnOff {
                on_ops_per_s: 2_000_000.0, // 500 ns mean gaps
                off_ops_per_s: 0.0,
                period_ns: 10_000,
                duty: 0.05, // 0.5 µs on, 9.5 µs off
            },
            0,
        );
        let mut prev = 0;
        for _ in 0..100 {
            let t = g.next_ns();
            assert!(t > prev);
            prev = t;
        }
        // A cycle takes the burst's arrivals (one on average) plus the
        // one whose gap spills into the off phase: 100 arrivals at ~2 per
        // cycle means we crossed many off phases.
        assert!(prev > 10_000 * 40, "clock stuck at {prev}");
    }

    #[test]
    fn diurnal_rate_swings_between_trough_and_peak() {
        let c = RateCurve::Diurnal {
            peak_ops_per_s: 10_000.0,
            trough_ops_per_s: 100.0,
            period_ns: 1_000_000,
        };
        assert!((c.rate_at(0) - 100.0).abs() < 1e-6);
        assert!((c.rate_at(500_000) - 10_000.0).abs() < 1e-6);
        assert!((c.mean_rate() - 5_050.0).abs() < 1e-6);
    }
}
