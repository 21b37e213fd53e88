//! Zipf-distributed sampling over `0..n`, used for slot popularity.
//!
//! Implements the classic Gray et al. incremental method ("Quickly
//! generating billion-record synthetic databases", SIGMOD '94): after an
//! O(n) one-time harmonic precomputation, each sample is O(1).

use rand::Rng;

/// A Zipf(θ) sampler over `0..n`.
///
/// θ = 0 degenerates to uniform; θ → 1 concentrates mass on few slots.
/// Item `i` has probability proportional to `1 / (i+1)^θ`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `0.5^θ`, rank 1's weight: a draw with `u · ζ(n)` in `[1, 1 + 0.5^θ)`
    /// is rank 1.
    half_pow_theta: f64,
}

impl Zipf {
    /// Builds a sampler over `0..n` with skew `theta` in `[0, 1)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "zipf over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2.min(n), theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Zipf {
            n,
            alpha,
            zetan,
            eta,
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum for small n; Euler-Maclaurin style approximation for
        // large n keeps construction cheap at trace scales.
        if n <= 10_000_000 {
            (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
        } else {
            let head: f64 = (1..=10_000u64).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let tail = ((n as f64).powf(1.0 - theta) - 10_000f64.powf(1.0 - theta)) / (1.0 - theta);
            head + tail
        }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws one sample in `0..n` (0 is the most popular item).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.random();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1.min(self.n - 1);
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

/// How many head ranks an [`AliasZipf`] resolves exactly; everything past
/// the head is one aggregated tail outcome. 1024 ranks cover >99 % of the
/// probability mass for every θ the workloads use, so the table costs a few
/// KiB regardless of the domain size.
pub const ALIAS_HEAD_RANKS: u64 = 1024;

/// A Zipf(θ) sampler over `0..n` whose **setup cost is O(min(n, 1024))**
/// instead of O(n) — built for million-entity domains (client populations)
/// where [`Zipf`]'s harmonic precomputation would dominate.
///
/// The most popular `min(n, 1024)` ranks get exact probabilities resolved
/// through a Vose alias table (O(1) per draw); the remaining tail is a
/// single alias outcome whose rank is drawn from the continuous power-law
/// inverse CDF. The tail mass uses the integral approximation
/// `∫ x^(-θ) dx = (n^(1-θ) - head^(1-θ)) / (1-θ)`, exact for θ = 0 and
/// within the discretisation error of the harmonic sum otherwise, so the
/// draw distribution matches [`Zipf`] within statistical tolerance (see
/// `alias_matches_exact_zipf`).
#[derive(Debug, Clone)]
pub struct AliasZipf {
    n: u64,
    theta: f64,
    /// Ranks `0..head` are exact alias-table outcomes; outcome `head`
    /// (present only when `n > head`) is the aggregated tail.
    head: u64,
    /// Vose acceptance thresholds, one per outcome.
    prob: Vec<f64>,
    /// Vose alias targets, one per outcome.
    alias: Vec<u32>,
    /// `head^(1-θ)` — lower bound of the tail inverse CDF.
    tail_lo: f64,
    /// `n^(1-θ)` — upper bound of the tail inverse CDF.
    tail_hi: f64,
    /// `1 / (1-θ)`.
    inv_one_minus_theta: f64,
}

impl AliasZipf {
    /// Builds a sampler over `0..n` with skew `theta` in `[0, 1)`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> AliasZipf {
        assert!(n > 0, "zipf over empty domain");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let head = n.min(ALIAS_HEAD_RANKS);
        let mut weights: Vec<f64> = (0..head)
            .map(|i| 1.0 / ((i + 1) as f64).powf(theta))
            .collect();
        let tail_lo = (head as f64).powf(1.0 - theta);
        let tail_hi = (n as f64).powf(1.0 - theta);
        if n > head {
            weights.push((tail_hi - tail_lo) / (1.0 - theta));
        }

        // Vose's alias method: O(outcomes) construction, one comparison per
        // draw. `prob[i]` is the chance column i resolves to outcome i
        // rather than to `alias[i]`.
        let k = weights.len();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * k as f64 / total).collect();
        let mut prob = vec![0.0f64; k];
        let mut alias = vec![0u32; k];
        let mut small: Vec<usize> = (0..k).filter(|&i| scaled[i] < 1.0).collect();
        let mut large: Vec<usize> = (0..k).filter(|&i| scaled[i] >= 1.0).collect();
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            prob[s] = scaled[s];
            alias[s] = l as u32;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Leftovers are exactly 1 up to float error: they keep themselves.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i as u32;
        }

        AliasZipf {
            n,
            theta,
            head,
            prob,
            alias,
            tail_lo,
            tail_hi,
            inv_one_minus_theta: 1.0 / (1.0 - theta),
        }
    }

    /// Domain size.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Heap bytes held by the alias table (for state accounting).
    pub fn table_bytes(&self) -> u64 {
        (self.prob.capacity() * size_of::<f64>() + self.alias.capacity() * size_of::<u32>()) as u64
    }

    /// Draws one sample in `0..n` (0 is the most popular item).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let k = self.prob.len();
        let scaled = rng.random::<f64>() * k as f64;
        let idx = (scaled as usize).min(k - 1);
        let frac = scaled - idx as f64;
        let outcome = if frac < self.prob[idx] {
            idx as u64
        } else {
            self.alias[idx] as u64
        };
        if outcome < self.head {
            return outcome;
        }
        // Tail outcome: rank from the continuous inverse CDF over [head, n).
        let u: f64 = rng.random();
        let x = (self.tail_lo + u * (self.tail_hi - self.tail_lo)).powf(self.inv_one_minus_theta);
        (x as u64).clamp(self.head, self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn samples_stay_in_domain() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((6_000..14_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn high_theta_concentrates_mass() {
        let z = Zipf::new(100_000, 0.99);
        let mut rng = StdRng::seed_from_u64(42);
        let mut top100 = 0u32;
        const N: u32 = 100_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 100 {
                top100 += 1;
            }
        }
        // With theta ~1 over 1e5 items, the top 0.1% of items should draw
        // a large share of accesses.
        assert!(
            top100 > N / 3,
            "top-100 items drew only {top100}/{N} accesses"
        );
    }

    #[test]
    fn skew_orders_by_theta() {
        let mut rng = StdRng::seed_from_u64(9);
        let frac_top = |theta: f64, rng: &mut StdRng| {
            let z = Zipf::new(10_000, theta);
            let mut hit = 0;
            for _ in 0..20_000 {
                if z.sample(rng) < 100 {
                    hit += 1;
                }
            }
            hit
        };
        let low = frac_top(0.2, &mut rng);
        let high = frac_top(0.95, &mut rng);
        assert!(high > low * 2, "low {low}, high {high}");
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn zero_domain_rejected() {
        let _ = Zipf::new(0, 0.5);
    }

    /// Empirical rank shares from `draws` samples, bucketed as
    /// (top-1, top-100, top-head, beyond-head).
    fn shares<F: FnMut(&mut StdRng) -> u64>(mut sample: F, seed: u64) -> [f64; 4] {
        let mut rng = StdRng::seed_from_u64(seed);
        const DRAWS: u32 = 200_000;
        let mut counts = [0u32; 4];
        for _ in 0..DRAWS {
            let r = sample(&mut rng);
            if r == 0 {
                counts[0] += 1;
            }
            if r < 100 {
                counts[1] += 1;
            }
            if r < ALIAS_HEAD_RANKS {
                counts[2] += 1;
            } else {
                counts[3] += 1;
            }
        }
        counts.map(|c| c as f64 / DRAWS as f64)
    }

    #[test]
    fn alias_samples_stay_in_domain() {
        for n in [1u64, 2, 1000, 2_000_000] {
            let z = AliasZipf::new(n, 0.9);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..10_000 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn alias_matches_exact_zipf() {
        // The whole point of the alias sampler: at any domain size its draw
        // distribution matches the O(n)-setup Gray et al. sampler within
        // statistical tolerance, for both a pure-head domain (n <= 1024,
        // alias table only) and a large domain exercising the tail path.
        for (n, theta) in [
            (16u64, 0.9),
            (500u64, 0.5),
            (100_000u64, 0.9),
            (100_000u64, 0.0),
        ] {
            let exact = Zipf::new(n, theta);
            let alias = AliasZipf::new(n, theta);
            let se = shares(|rng| exact.sample(rng), 11);
            let sa = shares(|rng| alias.sample(rng), 13);
            for (i, (e, a)) in se.iter().zip(&sa).enumerate() {
                assert!(
                    (e - a).abs() < 0.05,
                    "n={n} theta={theta} share bucket {i}: exact {e:.3} vs alias {a:.3}"
                );
            }
        }
    }

    #[test]
    fn alias_million_domain_is_cheap_and_skewed() {
        // Setup at n = 1M must cost only the head table...
        let z = AliasZipf::new(1_000_000, 0.9);
        assert_eq!(z.n(), 1_000_000);
        assert!(z.theta() == 0.9);
        assert!(
            z.table_bytes() < 64 << 10,
            "table {} bytes",
            z.table_bytes()
        );
        // ...while still concentrating mass like a Zipf should: at θ = 0.9
        // over 1M ranks the top 1024 (0.1 % of the domain) hold ~35 % of
        // the mass and rank 0 alone ~3 %.
        let s = shares(|rng| z.sample(rng), 5);
        assert!(s[0] > 0.02, "rank-0 share {:.4}", s[0]);
        assert!(s[2] > 0.3, "head share {:.4}", s[2]);
        assert!(s[3] > 0.01, "tail must still be reachable: {:.4}", s[3]);
    }

    #[test]
    fn alias_theta_zero_is_roughly_uniform() {
        let z = AliasZipf::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((6_000..14_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn alias_zero_domain_rejected() {
        let _ = AliasZipf::new(0, 0.5);
    }

    #[test]
    #[should_panic(expected = "theta must be")]
    fn alias_theta_one_rejected() {
        let _ = AliasZipf::new(10, 1.0);
    }

    #[test]
    #[should_panic(expected = "theta must be")]
    fn theta_one_rejected() {
        let _ = Zipf::new(10, 1.0);
    }
}
