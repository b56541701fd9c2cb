//! AIP configuration knobs.

use sip_filter::AipSetKind;

/// Configuration shared by both AIP algorithms.
#[derive(Clone, Debug)]
pub struct AipConfig {
    /// Summary representation for constructed AIP sets. The paper's
    /// implementation "only employs Bloom filters" (§V) after finding hash
    /// sets' precision not worth their cost; both are available here for
    /// the ablation benches.
    pub set_kind: AipSetKind,
    /// Bloom false-positive rate target (paper: 5%).
    pub fpr: f64,
    /// Bloom hash-function count (paper: 1).
    pub n_hashes: u32,
    /// Lower bound on the expected-keys figure used to size Bloom filters,
    /// so wildly wrong underestimates cannot create useless tiny filters.
    pub min_expected_keys: usize,
    /// Cost-based only: additional cost per byte of AIP set, paid before a
    /// set is judged beneficial. Zero locally; the distributed manager sets
    /// it from link bandwidth (§V-B "the cost of transmitting an AIP filter
    /// across the network").
    pub ship_cost_per_byte: f64,
}

impl Default for AipConfig {
    fn default() -> Self {
        AipConfig {
            set_kind: AipSetKind::Bloom,
            fpr: 0.05,
            n_hashes: 1,
            min_expected_keys: 1024,
            ship_cost_per_byte: 0.0,
        }
    }
}

impl AipConfig {
    /// The paper's default configuration.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Exact hash AIP sets (the §V preliminary-experiment ablation).
    pub fn hash_sets() -> Self {
        AipConfig {
            set_kind: AipSetKind::Hash,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = AipConfig::paper();
        assert_eq!(c.set_kind, AipSetKind::Bloom);
        assert!((c.fpr - 0.05).abs() < 1e-12);
        assert_eq!(c.n_hashes, 1);
        assert_eq!(c.ship_cost_per_byte, 0.0);
    }

    #[test]
    fn hash_ablation_config() {
        assert_eq!(AipConfig::hash_sets().set_kind, AipSetKind::Hash);
    }
}
