//! Queued service stations: the contention model for disks, NICs and CPUs.

use std::collections::VecDeque;

use crate::sim::SimTime;

/// The bounded future schedule of a single server: sorted, disjoint busy
/// intervals above a horizon.
///
/// A booking takes the earliest gap at or after its `now` that fits its
/// duration. Intervals that end at or before `now` cannot hold that gap, so
/// a search over the (sorted) interval ends skips them: a booking costs
/// O(log n) in the common case, and a few comparisons when it lands among
/// the newest intervals, as bookings at the present do. Once more than
/// [`MAX_INTERVALS`] intervals are live, the oldest collapse into the
/// horizon, below which nothing can be booked: that cap decides which gaps
/// stay bookable, so it is part of the model, not a tuning knob.
#[derive(Debug, Clone, Default, PartialEq)]
struct GapBook {
    /// Nothing can be scheduled before this time (old bookings collapsed).
    horizon: SimTime,
    /// Sorted, disjoint busy intervals at or after `horizon`.
    intervals: VecDeque<(SimTime, SimTime)>,
}

/// Live intervals a [`GapBook`] keeps before collapsing the oldest.
const MAX_INTERVALS: usize = 128;

impl GapBook {
    /// Books `dur` at the earliest gap at or after `now`; returns the end.
    fn reserve(&mut self, now: SimTime, dur: SimTime) -> SimTime {
        let mut cur = now.max(self.horizon);
        // None of the intervals ending at or before `cur` can delay the
        // booking.
        let first = self.first_ending_after(cur);
        let mut idx = self.intervals.len();
        for (i, &(s, e)) in self.intervals.range(first..).enumerate() {
            if e <= cur {
                continue;
            }
            if cur + dur <= s {
                idx = first + i;
                break;
            }
            cur = cur.max(e);
        }
        self.book(idx, cur, cur + dur)
    }

    /// Index of the first interval that ends after `t`. Ends are sorted,
    /// so the intervals ending at or before `t` form a prefix. A book at
    /// its cap usually holds only a few intervals beyond the present, so
    /// a short walk back from the newest finds the split before a binary
    /// search over the whole book is needed.
    fn first_ending_after(&self, t: SimTime) -> usize {
        let n = self.intervals.len();
        for i in (n.saturating_sub(4)..n).rev() {
            if self.intervals[i].1 <= t {
                return i + 1;
            }
        }
        self.intervals.partition_point(|&(_, e)| e <= t)
    }

    /// Inserts the busy interval `[start, end)` found at scan position
    /// `idx`, merges it with touching neighbours and collapses the oldest
    /// intervals beyond [`MAX_INTERVALS`]. Returns `end`.
    fn book(&mut self, idx: usize, start: SimTime, end: SimTime) -> SimTime {
        // Insert keeping order; merge with touching neighbours.
        let mut insert_at = idx.min(self.intervals.len());
        // idx from the scan may be one past intervals that end before cur.
        while insert_at > 0 && self.intervals[insert_at - 1].0 > start {
            insert_at -= 1;
        }
        while insert_at < self.intervals.len() && self.intervals[insert_at].0 < start {
            insert_at += 1;
        }
        self.intervals.insert(insert_at, (start, end));
        // Merge left and right if touching.
        if insert_at + 1 < self.intervals.len()
            && self.intervals[insert_at].1 == self.intervals[insert_at + 1].0
        {
            let (_, e2) = self.intervals.remove(insert_at + 1).unwrap();
            self.intervals[insert_at].1 = e2;
        }
        if insert_at > 0 && self.intervals[insert_at - 1].1 == self.intervals[insert_at].0 {
            let (_, e2) = self.intervals.remove(insert_at).unwrap();
            self.intervals[insert_at - 1].1 = e2;
        }
        // Bound memory: collapse the oldest intervals into the horizon.
        while self.intervals.len() > MAX_INTERVALS {
            let (_, e) = self.intervals.pop_front().unwrap();
            self.horizon = self.horizon.max(e);
        }
        end
    }
}

/// A `c`-server FIFO station.
///
/// `reserve(now, duration)` books a server at or after `now` and returns the
/// completion time; the caller then schedules its continuation at that time.
/// This models a work-conserving queue (e.g. an SSD with internal
/// parallelism `c`, or one direction of a NIC) without per-job event
/// overhead.
///
/// The time-forwarding simulation books some work into the *future* (an
/// update's later pipeline hops, a recycle chain's I/O). Naive earliest-free
/// booking would let such future reservations falsely queue later-issued
/// requests that arrive *earlier* in simulated time, so:
///
/// * **single-server** stations keep a gap list bounded at 128 busy
///   intervals and backfill idle holes between future bookings; a booking
///   skips the intervals that end before it by a short walk back from the
///   newest, then a binary search, so it costs O(log n) unless it has to
///   walk gaps too short for it;
/// * **multi-server** stations choose best-fit: a server already free at
///   `now` if one exists (a serial chain keeps reusing its own lane),
///   otherwise the earliest-free server.
#[derive(Debug, Clone)]
pub struct Resource {
    /// Multi-server: earliest time each server becomes free.
    free_at: Vec<SimTime>,
    /// Single-server: gap-aware schedule.
    book: Option<GapBook>,
    busy: u64,
    completed: u64,
}

impl Resource {
    /// Station with `servers` parallel servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Resource {
        assert!(servers > 0, "resource needs at least one server");
        Resource {
            free_at: vec![0; servers],
            book: (servers == 1).then(GapBook::default),
            busy: 0,
            completed: 0,
        }
    }

    /// Number of servers.
    #[inline]
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Books `duration` of service starting no earlier than `now`; returns
    /// the completion time.
    pub fn reserve(&mut self, now: SimTime, duration: SimTime) -> SimTime {
        self.busy += duration;
        self.completed += 1;
        if let Some(book) = &mut self.book {
            return book.reserve(now, duration);
        }
        // Best fit: prefer the server free at or before `now` with the
        // latest free time; otherwise the earliest-free server.
        let mut best_fit: Option<usize> = None;
        let mut earliest: usize = 0;
        for (i, &f) in self.free_at.iter().enumerate() {
            if f <= now && best_fit.is_none_or(|b| f > self.free_at[b]) {
                best_fit = Some(i);
            }
            if f < self.free_at[earliest] {
                earliest = i;
            }
        }
        let chosen = best_fit.unwrap_or(earliest);
        let end = now.max(self.free_at[chosen]) + duration;
        self.free_at[chosen] = end;
        end
    }

    /// Total booked busy time across servers.
    pub fn busy_time(&self) -> u64 {
        self.busy
    }

    /// Jobs completed (booked) so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_serialises() {
        let mut r = Resource::new(1);
        assert_eq!(r.reserve(0, 10), 10);
        assert_eq!(r.reserve(0, 10), 20); // queued behind the first
        assert_eq!(r.reserve(25, 5), 30); // idle gap respected
        assert_eq!(r.completed(), 3);
        assert_eq!(r.busy_time(), 25);
    }

    #[test]
    fn single_server_backfills_gaps() {
        let mut r = Resource::new(1);
        // A future booking at t = 1000 must not block earlier arrivals.
        assert_eq!(r.reserve(1000, 50), 1050);
        assert_eq!(r.reserve(0, 100), 100, "earlier op backfills the idle gap");
        assert_eq!(r.reserve(0, 100), 200);
        // A request that does not fit the remaining gap lands after the
        // future booking.
        assert_eq!(r.reserve(150, 900), 1050 + 900);
    }

    #[test]
    fn single_server_gap_merging() {
        let mut r = Resource::new(1);
        assert_eq!(r.reserve(0, 10), 10);
        assert_eq!(r.reserve(10, 10), 20); // touches: merges
        assert_eq!(r.reserve(5, 10), 30); // no gap left before 20
    }

    #[test]
    fn single_server_bounded_memory() {
        let mut r = Resource::new(1);
        // Thousands of scattered future bookings must not grow unboundedly
        // or panic; early gaps eventually collapse into the horizon.
        for i in 0..10_000u64 {
            let t = (i * 7919) % 1_000_000;
            r.reserve(t, 1);
        }
        assert_eq!(r.completed(), 10_000);
    }

    #[test]
    fn multi_server_runs_in_parallel() {
        let mut r = Resource::new(3);
        assert_eq!(r.reserve(0, 10), 10);
        assert_eq!(r.reserve(0, 10), 10);
        assert_eq!(r.reserve(0, 10), 10);
        assert_eq!(r.reserve(0, 10), 20); // fourth job waits
    }

    #[test]
    fn multi_server_foreground_not_poisoned_by_future_chain() {
        let mut r = Resource::new(4);
        // A serial chain booking into the future reuses one lane...
        let mut t = 1000;
        for _ in 0..10 {
            t = r.reserve(t, 100);
        }
        // ...so a foreground op at t=0 still starts immediately.
        assert_eq!(r.reserve(0, 10), 10);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = Resource::new(0);
    }

    impl GapBook {
        /// The front-to-back scan [`GapBook::reserve`] replaced, kept as
        /// the reference: walk every interval from the oldest, skipping
        /// those that end at or before the running start.
        fn reference_reserve(&mut self, now: SimTime, dur: SimTime) -> SimTime {
            let mut cur = now.max(self.horizon);
            let mut idx = self.intervals.len();
            for (i, &(s, e)) in self.intervals.iter().enumerate() {
                if e <= cur {
                    continue;
                }
                if cur + dur <= s {
                    idx = i;
                    break;
                }
                cur = cur.max(e);
            }
            self.book(idx, cur, cur + dur)
        }
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 33
    }

    /// The searched booking against the reference scan on seeded,
    /// non-monotone `now` sequences: equal ends and equal books after
    /// every call, through zero-length bookings, exact gap fills (the
    /// merge path) and the 128-interval collapse.
    #[test]
    fn gap_booking_matches_reference_scan() {
        // A request ready at 95 cannot fit the 5 ns left before the
        // booking at 100, so it queues behind that booking's end at 110.
        let (mut fast, mut slow) = (GapBook::default(), GapBook::default());
        for (now, dur, end) in [(100, 10, 110), (0, 10, 10), (95, 10, 120)] {
            assert_eq!(fast.reserve(now, dur), end);
            assert_eq!(slow.reference_reserve(now, dur), end);
        }
        assert_eq!(fast, slow);

        let (mut zero_length, mut gap_fills, mut collapses) = (0, 0, 0);
        for seed in 1..=8u64 {
            let (mut fast, mut slow) = (GapBook::default(), GapBook::default());
            let mut x = seed;
            let mut clock = 0u64;
            for call in 0..3_000 {
                clock += lcg(&mut x) % 50;
                let live = slow.intervals.len();
                // A short gap between two live intervals, if one was drawn.
                let gap = (live >= 2)
                    .then(|| lcg(&mut x) as usize % (live - 1))
                    .map(|i| (slow.intervals[i].1, slow.intervals[i + 1].0))
                    .filter(|&(e, s)| s - e <= 200);
                let (now, dur) = match (lcg(&mut x) % 8, gap) {
                    // Fill the gap exactly: the booking touches both
                    // neighbours and merges with them.
                    (0 | 1, Some((e, s))) => (e, s - e),
                    (2, _) => (clock.saturating_sub(lcg(&mut x) % 2_000), 0),
                    (3, _) => (
                        clock.saturating_sub(lcg(&mut x) % 5_000),
                        1 + lcg(&mut x) % 40,
                    ),
                    (4 | 5, _) => (clock + lcg(&mut x) % 100_000, 1 + lcg(&mut x) % 40),
                    _ => (clock, 1 + lcg(&mut x) % 80),
                };
                let horizon = slow.horizon;
                let end = slow.reference_reserve(now, dur);
                assert_eq!(fast.reserve(now, dur), end, "seed {seed} call {call}");
                assert_eq!(fast, slow, "seed {seed} call {call}");
                zero_length += (dur == 0) as u32;
                gap_fills += (slow.intervals.len() < live) as u32;
                collapses += (slow.horizon > horizon) as u32;
            }
        }
        assert!(zero_length > 0, "no zero-length booking");
        assert!(gap_fills > 0, "no booking merged with both neighbours");
        assert!(collapses > 0, "the book never reached its cap");
    }
}
