//! Client skew: who issues each arrival.
//!
//! Real client populations are never uniform — the traces the paper
//! measures (Ali-Cloud, Ten-Cloud, MSR) all show a few tenants dominating
//! the request stream. [`ClientSkew`] draws the issuing client per
//! arrival; where each client's ops land in its volume is the trace
//! family's own hot-set model (`traces::WorkloadParams`).

use rand::Rng;
use traces::AliasZipf;

/// How the issuing client is drawn for each arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClientSkew {
    /// Every client equally likely.
    Uniform,
    /// Client popularity follows Zipf(θ): client 0 is the hottest.
    Zipf {
        /// Skew in `[0, 1)` (0 degenerates to uniform).
        theta: f64,
    },
}

impl ClientSkew {
    /// Validates shape parameters.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ClientSkew::Uniform => Ok(()),
            ClientSkew::Zipf { theta } => {
                if !(0.0..1.0).contains(&theta) {
                    return Err(format!("zipf theta = {theta} must be in [0, 1)"));
                }
                Ok(())
            }
        }
    }
}

/// A prepared per-arrival client sampler for a fixed population size.
///
/// Setup is O(min(clients, 1024)) and each draw O(1) for every skew: the
/// Zipf variant samples through a `traces::AliasZipf` table, so a
/// million-client population costs the same per arrival as a ten-client
/// one.
#[derive(Debug, Clone)]
pub(crate) enum ClientPicker {
    /// Uniform over `0..clients`.
    Uniform {
        /// Population size.
        clients: u64,
    },
    /// Zipf-ranked through an alias table.
    Zipf(AliasZipf),
}

impl ClientPicker {
    /// Builds a picker over `clients` clients.
    ///
    /// # Panics
    /// Panics if the skew fails validation or `clients == 0`.
    pub(crate) fn new(skew: ClientSkew, clients: u64) -> ClientPicker {
        skew.validate().expect("invalid client skew");
        assert!(clients > 0, "picker over empty client population");
        match skew {
            ClientSkew::Uniform => ClientPicker::Uniform { clients },
            ClientSkew::Zipf { theta } => ClientPicker::Zipf(AliasZipf::new(clients, theta)),
        }
    }

    /// Draws the issuing client for one arrival.
    pub(crate) fn pick<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match self {
            ClientPicker::Uniform { clients } => rng.random_range(0..*clients),
            ClientPicker::Zipf(zipf) => zipf.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn skews_validate() {
        assert!(ClientSkew::Uniform.validate().is_ok());
        assert!(ClientSkew::Zipf { theta: 0.9 }.validate().is_ok());
        assert!(ClientSkew::Zipf { theta: 1.0 }.validate().is_err());
    }

    fn shares(skew: ClientSkew, clients: u64, draws: usize) -> Vec<usize> {
        let picker = ClientPicker::new(skew, clients);
        let mut rng = StdRng::seed_from_u64(17);
        let mut counts = vec![0usize; clients as usize];
        for _ in 0..draws {
            counts[picker.pick(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn uniform_spreads_evenly() {
        let counts = shares(ClientSkew::Uniform, 10, 50_000);
        for &c in &counts {
            assert!((3_500..6_500).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn zipf_orders_clients_by_popularity() {
        let counts = shares(ClientSkew::Zipf { theta: 0.9 }, 8, 50_000);
        assert!(counts[0] > counts[4] * 2, "counts {counts:?}");
    }
}
