//! Deterministic discrete-event simulation (DES) engine.
//!
//! This crate is the substrate that stands in for the paper's 16-node
//! Chameleon testbed: instead of wall-clock measurements on real hardware,
//! every experiment advances a virtual nanosecond clock through an event
//! queue, which makes the whole evaluation **deterministic and
//! noise-free** — the property the reproduction needs to compare update
//! methods fairly.
//!
//! Architecture:
//!
//! * [`sim::Sim`] — the event loop: a priority queue of `(time, seq)`-ordered
//!   events carrying continuation closures over a user world type `W`;
//! * [`resource::Resource`] — a `c`-server FIFO station (a disk, a NIC
//!   direction, a CPU) that converts service demands into completion times
//!   under contention;
//! * [`stats`] — counters, windowed time series (for IOPS-over-time plots),
//!   and log-bucketed histograms with quantiles (for latency tables);
//! * [`span`] — bounded append-only span logs for deterministic tracing
//!   (per-op lifecycle waterfalls, per-node busy lanes).
//!
//! # Example
//!
//! ```
//! use simdes::{Sim, Resource, units};
//!
//! struct World { disk: Resource, done: u32 }
//! let mut sim = Sim::new();
//! let mut world = World { disk: Resource::new(1), done: 0 };
//! // Two jobs arrive together; the single-server disk serialises them.
//! for _ in 0..2 {
//!     sim.schedule(0, |sim, w: &mut World| {
//!         let end = w.disk.reserve(sim.now(), 5 * units::MICROS);
//!         sim.schedule_at(end, |_, w| w.done += 1);
//!     });
//! }
//! sim.run(&mut world);
//! assert_eq!(world.done, 2);
//! assert_eq!(sim.now(), 10 * units::MICROS);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod resource;
pub mod sim;
pub mod span;
pub mod stats;

pub use resource::Resource;
pub use sim::{Sim, SimTime};
pub use span::{Span, SpanLog};

/// Time-unit constants for the nanosecond-resolution simulation clock.
pub mod units {
    use super::SimTime;

    /// One nanosecond.
    pub const NANOS: SimTime = 1;
    /// One microsecond in nanoseconds.
    pub const MICROS: SimTime = 1_000;
    /// One millisecond in nanoseconds.
    pub const MILLIS: SimTime = 1_000_000;
    /// One second in nanoseconds.
    pub const SECS: SimTime = 1_000_000_000;

    /// Converts a simulation time to fractional seconds.
    pub fn as_secs_f64(t: SimTime) -> f64 {
        t as f64 / SECS as f64
    }
}
