//! The event loop: a deterministic, continuation-passing scheduler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation timestamp in nanoseconds since simulation start.
pub type SimTime = u64;

/// A boxed, owned continuation — the general (capturing) callback shape.
type BoxedCallback<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W) + Send>;

/// A scheduled continuation.
///
/// The common case in hot loops is a plain function pointer with at most one
/// word of state — e.g. "drive client `c`" or "the next open-loop arrival".
/// Representing those unboxed removes a heap allocation per event, which is
/// the bulk of the scheduler's per-event overhead; only genuinely capturing
/// closures pay for a `Box`.
enum Callback<W> {
    /// A capturing closure (the general case).
    Boxed(BoxedCallback<W>),
    /// A plain function pointer: zero allocation.
    Fn0(fn(&mut Sim<W>, &mut W)),
    /// A function pointer plus one word of state: zero allocation.
    FnU(fn(&mut Sim<W>, &mut W, u64), u64),
}

impl<W> Callback<W> {
    #[inline]
    fn invoke(self, sim: &mut Sim<W>, world: &mut W) {
        match self {
            Callback::Boxed(f) => f(sim, world),
            Callback::Fn0(f) => f(sim, world),
            Callback::FnU(f, arg) => f(sim, world, arg),
        }
    }
}

struct Event<W> {
    time: SimTime,
    seq: u64,
    cb: Callback<W>,
}

// Ordering is by (time, seq); seq breaks ties FIFO so same-time events run
// in schedule order, which keeps runs reproducible.
impl<W> PartialEq for Event<W> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<W> Eq for Event<W> {}
impl<W> PartialOrd for Event<W> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Event<W> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A deterministic discrete-event scheduler over a world type `W`.
///
/// Events are closures receiving `(&mut Sim, &mut W)`; they may schedule
/// further events. Two events at the same timestamp run in the order they
/// were scheduled (stable FIFO tie-break), so identical inputs always
/// produce identical traces.
pub struct Sim<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Event<W>>>,
    executed: u64,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    /// A scheduler starting at time zero with an empty queue.
    pub fn new() -> Sim<W> {
        Sim {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            executed: 0,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    #[inline]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    #[inline]
    fn push(&mut self, t: SimTime, cb: Callback<W>) {
        assert!(
            t >= self.now,
            "cannot schedule event at {t} ns, already at {} ns",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Event { time: t, seq, cb }));
    }

    /// Schedules `cb` to run `delay` nanoseconds from now.
    pub fn schedule<F>(&mut self, delay: SimTime, cb: F)
    where
        F: FnOnce(&mut Sim<W>, &mut W) + Send + 'static,
    {
        self.schedule_at(self.now.saturating_add(delay), cb);
    }

    /// Schedules `cb` at absolute time `t`.
    ///
    /// # Panics
    /// Panics if `t` is in the simulated past — time travel would silently
    /// corrupt causality, so it is rejected loudly.
    pub fn schedule_at<F>(&mut self, t: SimTime, cb: F)
    where
        F: FnOnce(&mut Sim<W>, &mut W) + Send + 'static,
    {
        self.push(t, Callback::Boxed(Box::new(cb)));
    }

    /// Schedules a plain function pointer `delay` nanoseconds from now,
    /// without a heap allocation.
    pub fn schedule_call(&mut self, delay: SimTime, f: fn(&mut Sim<W>, &mut W)) {
        self.push(self.now.saturating_add(delay), Callback::Fn0(f));
    }

    /// Schedules a function pointer carrying one word of state at absolute
    /// time `t`, without a heap allocation. Panics on past times like
    /// [`Sim::schedule_at`].
    pub fn schedule_call_u_at(&mut self, t: SimTime, f: fn(&mut Sim<W>, &mut W, u64), arg: u64) {
        self.push(t, Callback::FnU(f, arg));
    }

    /// Runs until the event queue drains. Returns the final time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        while let Some(Reverse(ev)) = self.queue.pop() {
            debug_assert!(ev.time >= self.now, "event queue went backwards");
            self.now = ev.time;
            self.executed += 1;
            ev.cb.invoke(self, world);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule(30, |_, w: &mut Vec<u32>| w.push(3));
        sim.schedule(10, |_, w| w.push(1));
        sim.schedule(20, |_, w| w.push(2));
        sim.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(sim.now(), 30);
        assert_eq!(sim.events_executed(), 3);
    }

    #[test]
    fn same_time_events_run_fifo() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        for i in 0..100 {
            sim.schedule(5, move |_, w: &mut Vec<u32>| w.push(i));
        }
        sim.run(&mut world);
        assert_eq!(world, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_chain() {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        fn tick(sim: &mut Sim<u64>, w: &mut u64) {
            *w += 1;
            if *w < 5 {
                sim.schedule(7, tick);
            }
        }
        sim.schedule(0, tick);
        sim.run(&mut world);
        assert_eq!(world, 5);
        assert_eq!(sim.now(), 4 * 7);
    }

    #[test]
    #[should_panic(expected = "cannot schedule event")]
    fn scheduling_in_past_panics() {
        let mut sim: Sim<()> = Sim::new();
        let mut world = ();
        sim.schedule(10, |sim, _| {
            sim.schedule_at(5, |_, _| {});
        });
        sim.run(&mut world);
    }

    #[test]
    fn unboxed_callbacks_interleave_with_boxed_in_fifo_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        fn push7(_: &mut Sim<Vec<u32>>, w: &mut Vec<u32>) {
            w.push(7);
        }
        fn push_arg(_: &mut Sim<Vec<u32>>, w: &mut Vec<u32>, arg: u64) {
            w.push(arg as u32);
        }
        sim.schedule(5, |_, w: &mut Vec<u32>| w.push(1));
        sim.schedule_call(5, push7);
        sim.schedule_call_u_at(5, push_arg, 9);
        sim.schedule(5, |_, w: &mut Vec<u32>| w.push(2));
        sim.run(&mut world);
        assert_eq!(world, vec![1, 7, 9, 2]);
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> (u64, Vec<u64>) {
            let mut sim: Sim<Vec<u64>> = Sim::new();
            let mut world = Vec::new();
            for i in 0..50u64 {
                sim.schedule((i * 13) % 17, move |sim, w: &mut Vec<u64>| {
                    w.push(i);
                    if i % 3 == 0 {
                        sim.schedule(i % 5, move |_, w: &mut Vec<u64>| w.push(1000 + i));
                    }
                });
            }
            sim.run(&mut world);
            (sim.now(), world)
        }
        assert_eq!(run_once(), run_once());
    }
}
