//! Queued service stations: the contention model for disks, NICs and CPUs.

use crate::sim::SimTime;

/// The bounded future schedule of a single server: sorted, disjoint busy
/// intervals above a horizon.
///
/// A booking takes the earliest gap at or after its `now` that fits its
/// duration. Intervals that end at or before `now` cannot hold that gap, so
/// the walk starts at the first interval ending after `now`, found by a
/// short walk back from the newest, then a binary search. A booking that
/// ends up at or after the newest interval's end, as bookings at the
/// present do, extends that interval or takes the next ring slot; only a
/// booking that lands between intervals shifts the ones after it. Once more
/// than [`MAX_INTERVALS`] intervals are live, the oldest collapse into the
/// horizon, below which nothing can be booked: that cap decides which gaps
/// stay bookable, so it is part of the model, not a tuning knob.
#[derive(Debug, Clone)]
struct GapBook {
    /// Nothing can be scheduled before this time (old bookings collapsed).
    horizon: SimTime,
    /// A ring of [`SLOTS`] slots, allocated once. The live intervals are
    /// the `len` slots from `head` on, each at or after `horizon` and
    /// ending at or before the next one starts.
    ring: Box<[(SimTime, SimTime)]>,
    head: usize,
    len: usize,
}

/// Live intervals a [`GapBook`] keeps before collapsing the oldest.
const MAX_INTERVALS: usize = 128;

/// Ring slots of a [`GapBook`]: one spare, so a booking at the cap writes
/// its interval before the oldest, in the slot next to it, collapses.
const SLOTS: usize = MAX_INTERVALS + 1;

impl GapBook {
    fn new() -> GapBook {
        GapBook {
            horizon: 0,
            ring: vec![(0, 0); SLOTS].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    /// Ring slot of the `i`-th live interval, for `i <= len`.
    #[inline]
    fn slot(&self, i: usize) -> usize {
        let s = self.head + i;
        if s >= SLOTS {
            s - SLOTS
        } else {
            s
        }
    }

    /// The `i`-th live interval, oldest first.
    #[inline]
    fn at(&self, i: usize) -> (SimTime, SimTime) {
        self.ring[self.slot(i)]
    }

    /// Books `dur` at the earliest gap at or after `now`; returns the end.
    fn reserve(&mut self, now: SimTime, dur: SimTime) -> SimTime {
        let mut cur = now.max(self.horizon);
        for i in self.first_ending_after(cur)..self.len {
            let (s, e) = self.at(i);
            if e <= cur {
                continue;
            }
            if cur + dur <= s {
                self.insert(i, cur, cur + dur);
                return cur + dur;
            }
            cur = e;
        }
        self.append(cur, cur + dur);
        cur + dur
    }

    /// Index of the first interval that ends after `t`. Ends are sorted,
    /// so the intervals ending at or before `t` form a prefix. A book at
    /// its cap usually holds only a few intervals beyond the present, so
    /// a short walk back from the newest finds the split before a binary
    /// search over the rest is needed.
    fn first_ending_after(&self, t: SimTime) -> usize {
        let n = self.len;
        for i in (n.saturating_sub(4)..n).rev() {
            if self.at(i).1 <= t {
                return i + 1;
            }
        }
        let (mut lo, mut hi) = (0, n.saturating_sub(4));
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.at(mid).1 <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Books `[start, end)` at or after the newest interval's end: extends
    /// that interval when the booking touches it, else takes the next slot.
    fn append(&mut self, start: SimTime, end: SimTime) {
        if self.len > 0 {
            let newest = self.slot(self.len - 1);
            if self.ring[newest].1 == start {
                self.ring[newest].1 = end;
                return;
            }
        }
        let tail = self.slot(self.len);
        self.ring[tail] = (start, end);
        self.grow();
    }

    /// Books `[start, end)` just before the `idx`-th interval, merging it
    /// with the neighbours it touches.
    fn insert(&mut self, idx: usize, start: SimTime, end: SimTime) {
        let right = self.slot(idx);
        let left = (idx > 0)
            .then(|| self.slot(idx - 1))
            .filter(|&l| self.ring[l].1 == start);
        match (left, self.ring[right].0 == end) {
            (Some(l), true) => {
                self.ring[l].1 = self.ring[right].1;
                for i in idx..self.len - 1 {
                    self.ring[self.slot(i)] = self.at(i + 1);
                }
                self.len -= 1;
            }
            (Some(l), false) => self.ring[l].1 = end,
            (None, true) => self.ring[right].0 = start,
            (None, false) => {
                for i in (idx..self.len).rev() {
                    self.ring[self.slot(i + 1)] = self.at(i);
                }
                self.ring[right] = (start, end);
                self.grow();
            }
        }
    }

    /// Counts the interval just written past the newest; beyond the cap,
    /// collapses the oldest into the horizon.
    fn grow(&mut self) {
        self.len += 1;
        if self.len > MAX_INTERVALS {
            self.horizon = self.horizon.max(self.ring[self.head].1);
            self.head = self.slot(1);
            self.len -= 1;
        }
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
///   at or after the newest interval, the common case, costs a few loads,
///   and one between intervals also shifts the intervals after it;
/// * **multi-server** stations choose best-fit: a server already free at
///   `now` if one exists (a serial chain keeps reusing its own lane),
///   otherwise the earliest-free server. The free times are kept sorted,
///   so best fit is the last one at or before `now`, or the first.
#[derive(Debug, Clone)]
pub struct Resource {
    station: Station,
    busy: u64,
    completed: u64,
}

/// The servers of a [`Resource`], by how they are booked.
#[derive(Debug, Clone)]
enum Station {
    /// One server: its gap-aware schedule.
    Single(GapBook),
    /// Several servers: the time each becomes free, ascending.
    Lanes(Box<[SimTime]>),
}

impl Resource {
    /// Station with `servers` parallel servers.
    ///
    /// # Panics
    /// Panics if `servers == 0`.
    pub fn new(servers: usize) -> Resource {
        assert!(servers > 0, "resource needs at least one server");
        let station = if servers == 1 {
            Station::Single(GapBook::new())
        } else {
            Station::Lanes(vec![0; servers].into_boxed_slice())
        };
        Resource {
            station,
            busy: 0,
            completed: 0,
        }
    }

    /// Books `duration` of service starting no earlier than `now`; returns
    /// the completion time.
    pub fn reserve(&mut self, now: SimTime, duration: SimTime) -> SimTime {
        self.busy += duration;
        self.completed += 1;
        match &mut self.station {
            Station::Single(book) => book.reserve(now, duration),
            Station::Lanes(free_at) => book_lane(free_at, now, duration),
        }
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

/// Books `dur` on the best-fit lane of the ascending `free_at`: the latest
/// lane free at or before `now`, else the earliest-free one. The end
/// depends only on the chosen free time, so ties between lanes cannot
/// change it. Moves the new free time right to keep the order; returns it.
fn book_lane(free_at: &mut [SimTime], now: SimTime, dur: SimTime) -> SimTime {
    let free = free_at.iter().filter(|&&f| f <= now).count();
    let mut k = free.saturating_sub(1);
    let end = now.max(free_at[k]) + dur;
    while k + 1 < free_at.len() && free_at[k + 1] < end {
        free_at[k] = free_at[k + 1];
        k += 1;
    }
    free_at[k] = end;
    end
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

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

    /// The `VecDeque` book the ring replaced, kept as the reference: a
    /// front-to-back scan over every interval, then a generic insert, a
    /// merge with touching neighbours and a collapse beyond the cap.
    #[derive(Debug, Default)]
    struct DequeBook {
        horizon: SimTime,
        intervals: VecDeque<(SimTime, SimTime)>,
    }

    impl DequeBook {
        fn reserve(&mut self, now: SimTime, dur: SimTime) -> SimTime {
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
            let (start, end) = (cur, cur + dur);
            let mut insert_at = idx;
            while insert_at > 0 && self.intervals[insert_at - 1].0 > start {
                insert_at -= 1;
            }
            while insert_at < self.intervals.len() && self.intervals[insert_at].0 < start {
                insert_at += 1;
            }
            self.intervals.insert(insert_at, (start, end));
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
            while self.intervals.len() > MAX_INTERVALS {
                let (_, e) = self.intervals.pop_front().unwrap();
                self.horizon = self.horizon.max(e);
            }
            end
        }
    }

    /// The unsorted best-fit scan [`book_lane`] replaced, kept as the
    /// reference: the lane free at or before `now` with the latest free
    /// time, else the earliest-free lane, lowest index on ties.
    fn reference_book_lane(free_at: &mut [SimTime], now: SimTime, dur: SimTime) -> SimTime {
        let mut best_fit: Option<usize> = None;
        let mut earliest: usize = 0;
        for (i, &f) in free_at.iter().enumerate() {
            if f <= now && best_fit.is_none_or(|b| f > free_at[b]) {
                best_fit = Some(i);
            }
            if f < free_at[earliest] {
                earliest = i;
            }
        }
        let chosen = best_fit.unwrap_or(earliest);
        let end = now.max(free_at[chosen]) + dur;
        free_at[chosen] = end;
        end
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x >> 33
    }

    /// Asserts that the ring holds the reference's horizon and intervals.
    fn assert_same_book(ring: &GapBook, deque: &DequeBook, ctx: &str) {
        assert_eq!(ring.horizon, deque.horizon, "{ctx}: horizon");
        assert!(ring.len <= MAX_INTERVALS, "{ctx}: over the cap");
        assert!(
            (0..ring.len)
                .map(|i| ring.at(i))
                .eq(deque.intervals.iter().copied()),
            "{ctx}: intervals"
        );
    }

    /// The ring book against the `VecDeque` reference on seeded,
    /// non-monotone `now` sequences: equal ends and equal books after
    /// every call, through zero-length bookings, exact gap fills (the
    /// merge path), the 128-interval collapse and ring wrap-around.
    #[test]
    fn gap_booking_matches_reference_scan() {
        // A request ready at 95 cannot fit the 5 ns left before the
        // booking at 100, so it queues behind that booking's end at 110.
        let (mut fast, mut slow) = (GapBook::new(), DequeBook::default());
        for (now, dur, end) in [(100, 10, 110), (0, 10, 10), (95, 10, 120)] {
            assert_eq!(fast.reserve(now, dur), end);
            assert_eq!(slow.reserve(now, dur), end);
        }
        assert_same_book(&fast, &slow, "fixed");

        let (mut zero_length, mut gap_fills, mut collapses, mut wraps) = (0, 0, 0, 0);
        for seed in 1..=8u64 {
            let (mut fast, mut slow) = (GapBook::new(), DequeBook::default());
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
                let (horizon, head) = (slow.horizon, fast.head);
                let end = slow.reserve(now, dur);
                assert_eq!(fast.reserve(now, dur), end, "seed {seed} call {call}");
                assert_same_book(&fast, &slow, &format!("seed {seed} call {call}"));
                zero_length += (dur == 0) as u32;
                gap_fills += (slow.intervals.len() < live) as u32;
                collapses += (slow.horizon > horizon) as u32;
                wraps += (fast.head < head) as u32;
            }
        }
        assert!(zero_length > 0, "no zero-length booking");
        assert!(gap_fills > 0, "no booking merged with both neighbours");
        assert!(collapses > 0, "the book never reached its cap");
        assert!(wraps > 0, "the ring never wrapped");
    }

    /// Sorted lanes against the unsorted reference scan on seeded streams
    /// with many tied free times and out-of-order `now`s: equal ends, and
    /// equal free times as a multiset, after every call.
    #[test]
    fn lane_booking_matches_reference_scan() {
        let (mut ties, mut backwards) = (0, 0);
        for servers in 2..=8usize {
            for seed in 1..=4u64 {
                let mut lanes = vec![0; servers];
                let mut slow = vec![0; servers];
                let mut x = seed * 31 + servers as u64;
                let mut clock = 0u64;
                for call in 0..2_000 {
                    clock += 10 * (lcg(&mut x) % 3);
                    // Coarse times and durations make free times collide.
                    let now = match lcg(&mut x) % 4 {
                        0 => clock.saturating_sub(10 * (lcg(&mut x) % 20)),
                        1 => slow[lcg(&mut x) as usize % servers],
                        _ => clock,
                    };
                    let dur = 10 * (lcg(&mut x) % 4);
                    let fit = slow.iter().filter(|&&f| f <= now).max();
                    ties +=
                        fit.is_some_and(|m| slow.iter().filter(|&&f| f == *m).count() > 1) as u32;
                    backwards += (now < clock) as u32;
                    let end = reference_book_lane(&mut slow, now, dur);
                    let ctx = format!("servers {servers} seed {seed} call {call}");
                    assert_eq!(book_lane(&mut lanes, now, dur), end, "{ctx}");
                    let mut sorted = slow.clone();
                    sorted.sort_unstable();
                    assert_eq!(lanes, sorted, "{ctx}");
                }
            }
        }
        assert!(ties > 0, "no best fit among tied free times");
        assert!(backwards > 0, "no out-of-order booking");
    }
}
