//! Latent sector error (LSE) injection: deterministic, per-device media
//! corruption that stays invisible until something reads the affected
//! extent.
//!
//! Field studies (Bairavasundaram et al., FAST'07/'08) show latent sector
//! errors accumulate silently and are only discovered by *reads* — either a
//! foreground access or a background scrub pass. The maintenance subsystem
//! in `ecfs` uses this model to ask the question the scrub policy exists
//! for: are injected errors found and repaired before a correlated node
//! failure turns a latent error plus a dead disk into data loss?
//!
//! The model is intentionally simple and fully deterministic:
//!
//! * a fixed set of error **sites** (byte offsets) is drawn at construction
//!   from a seeded splitmix64 stream — no `rand` dependency, and the same
//!   `(seed, span, count, horizon)` always yields the same sites;
//! * each site has an **onset time**; before it the medium is healthy, so a
//!   scrub pass that sweeps early can legitimately miss an error that
//!   develops later (exactly the race real scrubbers lose);
//! * a [`LseModel::scrub`] of an extent *detects* every onset site inside
//!   it; [`LseModel::clear`] marks sites repaired once the block above has
//!   been rebuilt from redundancy.
//!
//! The model deliberately does not alter I/O timing or contents — it is an
//! oracle bolted onto the device, the same role `ecfs`'s consistency oracle
//! plays for parity.

use simdes::SimTime;

/// One latent error site on the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LseSite {
    /// Byte offset of the corrupted sector.
    pub offset: u64,
    /// Simulation time at which the medium degrades; the site is invisible
    /// to scrubs before this.
    pub onset: SimTime,
    /// Whether a scrub has found the site.
    pub detected: bool,
    /// Whether the block covering the site has been rebuilt since
    /// detection.
    pub repaired: bool,
}

/// The per-device latent-error oracle. Attach with
/// [`crate::Disk::install_lse`]; scrub passes report extents through
/// [`crate::Disk::scrub_lse`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LseModel {
    sites: Vec<LseSite>,
}

/// splitmix64: the tiny, high-quality mixer used to derive site offsets and
/// onsets without a `rand` dependency.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl LseModel {
    /// Draws `count` error sites with offsets in `[0, span)` and onsets in
    /// `[0, horizon_ns]`, deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `span == 0` while `count > 0`.
    pub fn seeded(seed: u64, span: u64, count: usize, horizon_ns: SimTime) -> LseModel {
        assert!(count == 0 || span > 0, "LSE span must be non-zero");
        let mut state = seed ^ 0x6c73_655f_7369_7465; // "lse_site"
        let mut sites = Vec::with_capacity(count);
        for _ in 0..count {
            let offset = splitmix64(&mut state) % span;
            let onset = if horizon_ns == 0 {
                0
            } else {
                splitmix64(&mut state) % (horizon_ns + 1)
            };
            sites.push(LseSite {
                offset,
                onset,
                detected: false,
                repaired: false,
            });
        }
        // Offset order keeps reporting deterministic and readable.
        sites.sort_by_key(|s| (s.offset, s.onset));
        LseModel { sites }
    }

    /// Scrubs the extent `[offset, offset + len)` at time `now`: every
    /// onset, not-yet-detected site inside it is marked detected. Returns
    /// how many sites this pass newly detected.
    pub fn scrub(&mut self, now: SimTime, offset: u64, len: u64) -> usize {
        let end = offset.saturating_add(len);
        let mut found = 0;
        for s in &mut self.sites {
            if !s.detected && s.onset <= now && s.offset >= offset && s.offset < end {
                s.detected = true;
                found += 1;
            }
        }
        found
    }

    /// Marks every detected site inside `[offset, offset + len)` repaired —
    /// call once the covering block has been rebuilt from redundancy.
    /// Returns how many sites were repaired.
    pub fn clear(&mut self, offset: u64, len: u64) -> usize {
        let end = offset.saturating_add(len);
        let mut cleared = 0;
        for s in &mut self.sites {
            if s.detected && !s.repaired && s.offset >= offset && s.offset < end {
                s.repaired = true;
                cleared += 1;
            }
        }
        cleared
    }

    /// Total sites injected on this device.
    pub fn injected(&self) -> usize {
        self.sites.len()
    }

    /// Sites a scrub has found so far.
    pub fn detected(&self) -> usize {
        self.sites.iter().filter(|s| s.detected).count()
    }

    /// Sites repaired (rebuilt from redundancy) so far.
    pub fn repaired(&self) -> usize {
        self.sites.iter().filter(|s| s.repaired).count()
    }

    /// Sites that have onset by `now` but are still unrepaired — the
    /// exposure window a correlated failure would turn into data loss.
    pub fn latent(&self, now: SimTime) -> usize {
        self.sites
            .iter()
            .filter(|s| s.onset <= now && !s.repaired)
            .count()
    }

    /// The raw sites, offset-sorted (inspection and tests).
    pub fn sites(&self) -> &[LseSite] {
        &self.sites
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let a = LseModel::seeded(42, 1 << 30, 8, 1_000_000);
        let b = LseModel::seeded(42, 1 << 30, 8, 1_000_000);
        assert_eq!(a, b);
        assert_eq!(a.injected(), 8);
        let c = LseModel::seeded(43, 1 << 30, 8, 1_000_000);
        assert_ne!(a, c, "different seeds must draw different sites");
    }

    #[test]
    fn sites_land_in_span_and_horizon() {
        let m = LseModel::seeded(7, 4096, 32, 500);
        for s in m.sites() {
            assert!(s.offset < 4096);
            assert!(s.onset <= 500);
        }
    }

    #[test]
    fn scrub_respects_onset_and_extent() {
        let mut m = LseModel::seeded(1, 1 << 20, 16, 1_000);
        // A scrub before every onset sees nothing.
        assert_eq!(
            m.scrub(0, 0, 1 << 20),
            m.sites().iter().filter(|s| s.onset == 0).count()
        );
        // After the horizon the full sweep finds everything remaining.
        let rest = m.scrub(1_001, 0, 1 << 20);
        assert_eq!(m.detected(), 16);
        assert!(rest <= 16);
        // Out-of-extent scrubs find nothing more.
        assert_eq!(m.scrub(2_000, 1 << 20, 1 << 20), 0);
    }

    #[test]
    fn clear_repairs_only_detected_sites() {
        let mut m = LseModel::seeded(9, 1 << 16, 4, 0);
        assert_eq!(m.clear(0, 1 << 16), 0, "nothing detected yet");
        assert_eq!(m.scrub(0, 0, 1 << 16), 4);
        assert_eq!(m.clear(0, 1 << 16), 4);
        assert_eq!(m.repaired(), 4);
        assert_eq!(m.latent(u64::MAX), 0);
        // Repaired sites never re-detect.
        assert_eq!(m.scrub(u64::MAX, 0, 1 << 16), 0);
    }

    #[test]
    fn latent_counts_unrepaired_onset_sites() {
        let mut m = LseModel::seeded(3, 1 << 16, 6, 0);
        assert_eq!(m.latent(0), 6);
        m.scrub(0, 0, 1 << 16);
        assert_eq!(m.latent(0), 6, "detection alone does not repair");
        m.clear(0, 1 << 16);
        assert_eq!(m.latent(0), 0);
    }

    #[test]
    fn scrub_and_clear_track_extents() {
        let mut m = LseModel::seeded(5, 1 << 16, 3, 0);
        let first = m.sites()[0].offset;
        let at_first = m.sites().iter().filter(|s| s.offset == first).count();
        assert_eq!(m.scrub(0, first, 1), at_first);
        assert_eq!(m.clear(first, 1), at_first);
        assert_eq!(m.latent(0), 3 - at_first, "sites outside the extent stay");
        assert!(m.sites().iter().all(|s| s.repaired == (s.offset == first)));
    }
}
