//! Simulated network links: the transport model of a remote scan
//! ([`crate::SourceModel::Remote`]).

use std::time::Duration;

/// A point-to-point link between the master and a remote site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in megabits per second.
    pub bandwidth_mbps: f64,
    /// One-way latency.
    pub latency: Duration,
}

impl LinkSpec {
    /// The paper's WAN assumption: 10 Mbps (§V-A, §VI).
    pub fn wan_10mbps() -> Self {
        LinkSpec {
            bandwidth_mbps: 10.0,
            latency: Duration::from_millis(20),
        }
    }

    /// The paper's distributed-join experiments: 100 Mb Ethernet (§VI-C).
    pub fn lan_100mbps() -> Self {
        LinkSpec {
            bandwidth_mbps: 100.0,
            latency: Duration::from_millis(1),
        }
    }

    /// Bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.bandwidth_mbps * 1_000_000.0 / 8.0
    }

    /// Transmission time for `bytes` (excluding latency).
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.bytes_per_sec())
    }

    /// Cost-model units per byte (for `AipConfig::ship_cost_per_byte`,
    /// matching the `CostModel` convention of ≈1 unit per row-touch; a
    /// 10 Mbps link moves 1.25 bytes per microsecond-ish unit).
    pub fn cost_per_byte(&self) -> f64 {
        8.0 / self.bandwidth_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales() {
        let l = LinkSpec::wan_10mbps();
        // 1.25 MB at 10 Mbps = 1 second.
        let t = l.transfer_time(1_250_000);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        let fast = LinkSpec::lan_100mbps();
        assert!(fast.transfer_time(1_250_000) < t);
    }

    #[test]
    fn cost_per_byte_inverse_to_bandwidth() {
        assert!(LinkSpec::wan_10mbps().cost_per_byte() > LinkSpec::lan_100mbps().cost_per_byte());
    }
}
