//! Property tests for the gap-aware resource scheduler: regardless of the
//! booking order (the time-forwarding simulation books out of time order),
//! the schedule must stay physically consistent, and every booking must end
//! where a brute-force station of the same model ends it.

use proptest::prelude::*;
use simdes::Resource;

/// Live intervals a single-server station keeps before the oldest
/// collapse into its horizon.
const CAP: usize = 128;

/// A brute-force station: unsorted lanes for several servers, a plain
/// sorted list of busy intervals for one.
struct Reference {
    free_at: Vec<u64>,
    horizon: u64,
    intervals: Vec<(u64, u64)>,
    collapsed: u64,
}

impl Reference {
    fn new(servers: usize) -> Reference {
        Reference {
            free_at: vec![0; servers],
            horizon: 0,
            intervals: Vec::new(),
            collapsed: 0,
        }
    }

    fn reserve(&mut self, now: u64, dur: u64) -> u64 {
        if self.free_at.len() == 1 {
            return self.reserve_gap(now, dur);
        }
        // Best fit: of the lanes free at `now`, the first with the latest
        // free time; otherwise the first earliest-free lane.
        let mut chosen = None;
        for (i, &f) in self.free_at.iter().enumerate() {
            if f <= now && chosen.is_none_or(|c: usize| f > self.free_at[c]) {
                chosen = Some(i);
            }
        }
        let earliest = (0..self.free_at.len())
            .min_by_key(|&i| self.free_at[i])
            .unwrap();
        let lane = chosen.unwrap_or(earliest);
        let end = now.max(self.free_at[lane]) + dur;
        self.free_at[lane] = end;
        end
    }

    /// The earliest start at or after `now` and the horizon, where no
    /// interval that ends later starts before the booking's end; only
    /// that bound and the interval ends are candidates.
    fn reserve_gap(&mut self, now: u64, dur: u64) -> u64 {
        let t0 = now.max(self.horizon);
        let fits = |c: u64| self.intervals.iter().all(|&(s, e)| e <= c || c + dur <= s);
        let start = std::iter::once(t0)
            .chain(self.intervals.iter().map(|&(_, e)| e).filter(|&e| e > t0))
            .filter(|&c| fits(c))
            .min()
            .unwrap();
        let end = start + dur;
        // After every interval ending at or before the start, zero-length
        // ones included.
        let at = self.intervals.partition_point(|&(_, e)| e <= start);
        self.intervals.insert(at, (start, end));
        // Merge with touching neighbours: the right one first.
        if at + 1 < self.intervals.len() && self.intervals[at + 1].0 == end {
            self.intervals[at].1 = self.intervals.remove(at + 1).1;
        }
        if at > 0 && self.intervals[at - 1].1 == start {
            self.intervals[at - 1].1 = self.intervals.remove(at).1;
        }
        while self.intervals.len() > CAP {
            self.horizon = self.horizon.max(self.intervals.remove(0).1);
            self.collapsed += 1;
        }
        end
    }
}

/// Books `reqs` on a station and on the reference, asserting equal ends;
/// returns how many intervals the reference collapsed.
fn assert_matches_reference(servers: usize, reqs: &[(u64, u64)]) -> u64 {
    let mut r = Resource::new(servers);
    let mut reference = Reference::new(servers);
    for (call, &(now, dur)) in reqs.iter().enumerate() {
        let end = reference.reserve(now, dur);
        assert_eq!(r.reserve(now, dur), end, "{servers} servers, call {call}");
    }
    reference.collapsed
}

#[test]
fn reference_collapses_past_the_cap() {
    // Sparse bookings keep more than `CAP` intervals apart, so the oldest
    // collapse and later bookings below the horizon queue above it.
    let mut x = 7u64;
    let reqs: Vec<(u64, u64)> = (0..1_000)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((x >> 33) % 10_000_000, 1 + (x >> 20) % 100)
        })
        .collect();
    let collapsed = assert_matches_reference(1, &reqs);
    assert!(collapsed > 0, "the reference never reached its cap");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-server: no two bookings may overlap in time, every booking
    /// starts at or after its requested time, and total busy time is
    /// conserved.
    #[test]
    fn single_server_schedule_is_physical(
        reqs in proptest::collection::vec((0u64..100_000, 1u64..500), 1..300)
    ) {
        let mut r = Resource::new(1);
        let mut bookings: Vec<(u64, u64)> = Vec::new();
        let mut total = 0u64;
        for &(now, dur) in &reqs {
            let end = r.reserve(now, dur);
            let start = end - dur;
            prop_assert!(start >= now, "booking started before request time");
            bookings.push((start, end));
            total += dur;
        }
        prop_assert_eq!(r.busy_time(), total);
        prop_assert_eq!(r.completed(), reqs.len() as u64);
        // No overlaps.
        bookings.sort_unstable();
        for w in bookings.windows(2) {
            prop_assert!(
                w[0].1 <= w[1].0,
                "overlapping bookings: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
    }

    /// Multi-server: at no instant may more than `c` bookings be active.
    #[test]
    fn multi_server_never_exceeds_capacity(
        servers in 2usize..6,
        reqs in proptest::collection::vec((0u64..50_000, 1u64..400), 1..200)
    ) {
        let mut r = Resource::new(servers);
        let mut events: Vec<(u64, i64)> = Vec::new();
        for &(now, dur) in &reqs {
            let end = r.reserve(now, dur);
            events.push((end - dur, 1));
            events.push((end, -1));
        }
        events.sort_unstable();
        let mut active = 0i64;
        for &(_, d) in &events {
            active += d;
            prop_assert!(
                active <= servers as i64,
                "more than {servers} concurrent bookings"
            );
        }
    }

    /// Every station, one server to eight, ends each booking where the
    /// brute-force reference does. Coarse times and durations, drawn out
    /// of order, make many lanes free at the same time and many bookings
    /// touch their neighbours.
    #[test]
    fn stations_match_brute_force_reference(
        servers in 1usize..9,
        reqs in proptest::collection::vec((0u64..64, 0u64..4), 1..400)
    ) {
        let reqs: Vec<(u64, u64)> = reqs.iter().map(|&(n, d)| (25 * n, 25 * d)).collect();
        assert_matches_reference(servers, &reqs);
    }

    /// The single server against the reference past its cap: sparse
    /// bookings leave more than 128 intervals live, so the oldest
    /// collapse into the horizon.
    #[test]
    fn single_server_matches_brute_force_past_the_cap(
        reqs in proptest::collection::vec((0u64..10_000_000, 1u64..100), 129..400)
    ) {
        assert_matches_reference(1, &reqs);
    }

    /// Backfilling never starves: a request issued at `now` with an
    /// otherwise idle server must complete by now + total pending work +
    /// its own duration (a coarse no-livelock bound).
    #[test]
    fn single_server_completion_is_bounded(
        reqs in proptest::collection::vec((0u64..10_000, 1u64..100), 1..100)
    ) {
        let mut r = Resource::new(1);
        let total: u64 = reqs.iter().map(|&(_, d)| d).sum();
        let max_now = reqs.iter().map(|&(n, _)| n).max().unwrap_or(0);
        for &(now, dur) in &reqs {
            let end = r.reserve(now, dur);
            prop_assert!(end <= max_now + total, "end {} beyond bound", end);
        }
    }
}
