//! Lazy arrival generation: the open-loop schedule, one op at a time.
//!
//! [`ArrivalSource`] is an iterator over a spec's arrivals with memory
//! proportional to the *touched* client set instead of the population or
//! the schedule length: per-client content generators are created on a
//! client's first pick and nothing is ever pre-allocated per client.
//! Combined with the alias-table Zipf picker (`traces::AliasZipf`,
//! O(min(n, 1024)) setup), a `clients: 1_000_000` spec costs a few KiB to
//! stand up and then O(1) per arrival.
//!
//! Laziness is sound because there is one independent seeded RNG per
//! concern: each client's `WorkloadGen` consumes only its own
//! `seed + client` stream, arrival times their own salted stream, and
//! client picks a third — so deferring a generator's construction to first
//! use cannot perturb any other draw (pinned by
//! `lazy_equals_eager_across_all_specs`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

use rand::rngs::StdRng;
use rand::SeedableRng;
use traces::{TraceOp, WorkloadGen, WorkloadParams};

use crate::arrival::ArrivalGen;
use crate::skew::ClientPicker;
use crate::OpenLoopSpec;

/// One offered op: the arrival schedule lives in `op.at_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedOp {
    /// The issuing client (u64: populations can exceed `usize` indexing
    /// conventions — sparse runtimes key on the id, never index by it).
    pub client: u64,
    /// The op, with `at_ns` as its absolute arrival time.
    pub op: TraceOp,
}

/// A lazy, infinite-capable source of timed ops for one open-loop spec.
///
/// Yields exactly `total_ops` [`TimedOp`]s with strictly increasing
/// `op.at_ns`. Holds one [`WorkloadGen`] per client *touched so far* —
/// the only state that scales, reported by [`Self::state_bytes`].
#[derive(Debug, Clone)]
pub struct ArrivalSource {
    /// Builds each client's generator ([`WorkloadGen::reseeded`]), so the
    /// hot-region Zipf is computed once per source, not once per client.
    template: WorkloadGen,
    seed: u64,
    /// Per-client content generators, created on first pick. The hasher
    /// has fixed keys, so the map allocates and frees in the same order on
    /// every run.
    gens: HashMap<u64, WorkloadGen, BuildHasherDefault<DefaultHasher>>,
    arrivals: ArrivalGen,
    picker: ClientPicker,
    pick_rng: StdRng,
    remaining: u64,
}

impl ArrivalSource {
    /// Builds the source; see `OpenLoopSpec::source` for the public entry.
    ///
    /// # Panics
    /// Panics if the spec or `base` fail validation, or `clients == 0`.
    pub(crate) fn new(
        spec: &OpenLoopSpec,
        base: &WorkloadParams,
        clients: u64,
        total_ops: u64,
        seed: u64,
    ) -> ArrivalSource {
        spec.validate().expect("invalid open-loop spec");
        assert!(clients > 0, "open-loop load needs at least one client");
        ArrivalSource {
            template: WorkloadGen::new(base.clone(), seed),
            seed,
            gens: HashMap::default(),
            arrivals: ArrivalGen::new(
                spec.rate.clone(),
                seed ^ 0x6172_7269_7661_6c73, // "arrivals"
            ),
            picker: ClientPicker::new(spec.client_skew, clients),
            pick_rng: StdRng::seed_from_u64(seed ^ 0x636c_6965_6e74_7321), // "clients!"
            remaining: total_ops,
        }
    }

    /// Ops not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Distinct clients that have issued at least one op so far — the
    /// quantity the generator's memory actually scales with.
    pub fn touched_clients(&self) -> u64 {
        self.gens.len() as u64
    }

    /// Heap bytes currently held by the per-client generator map, counted
    /// from live capacities and exact struct sizes (not population math).
    pub fn state_bytes(&self) -> u64 {
        let per_entry = size_of::<u64>() + size_of::<WorkloadGen>();
        let map = self.gens.capacity() * per_entry;
        let heap: usize = self.gens.values().map(WorkloadGen::heap_bytes).sum();
        (map + heap) as u64
    }
}

impl Iterator for ArrivalSource {
    type Item = TimedOp;

    fn next(&mut self) -> Option<TimedOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let at_ns = self.arrivals.next_ns();
        let client = self.picker.pick(&mut self.pick_rng);
        let (template, seed) = (&self.template, self.seed);
        let gen = self
            .gens
            .entry(client)
            .or_insert_with(|| template.reseeded(seed.wrapping_add(client)));
        let mut op = gen.next().expect("generator is infinite");
        op.at_ns = at_ns;
        Some(TimedOp { client, op })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}
