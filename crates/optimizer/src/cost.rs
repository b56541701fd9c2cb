//! The cost model the AIP manager consults at runtime.
//!
//! Costs are in abstract work units (≈ microseconds of CPU on the reference
//! machine); only *ratios* matter for the decisions `ESTIMATEBENEFIT` makes.
//! Network terms use the paper's assumption set: filters are shipped as raw
//! Bloom-filter bytes over a link of configured bandwidth (§V-B: "we simply
//! estimate the cost of shipping n bytes").

/// Tunable cost constants.
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Cost to move one row through a stateless operator.
    pub cpu_row: f64,
    /// Cost to insert one row into a hash table.
    pub cpu_build: f64,
    /// Cost to probe a hash table once.
    pub cpu_probe: f64,
    /// Cost to emit one join output row.
    pub cpu_output: f64,
    /// Cost to probe one row against one AIP filter.
    pub aip_probe: f64,
    /// Cost to insert one key while building an AIP set.
    pub aip_insert: f64,
    /// Cost to scan one buffered state row when constructing an AIP set.
    pub state_scan: f64,
    /// Link bandwidth for shipping filters, bytes per cost unit.
    pub net_bytes_per_unit: f64,
    /// Fixed per-message network latency, in cost units.
    pub net_latency: f64,
    /// Cost to hash-route one row across a shuffle mesh (hash + channel
    /// hop). Used by `sip-parallel` to price mid-plan repartitioning
    /// against its serial fallback.
    pub cpu_shuffle_row: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_row: 1.0,
            cpu_build: 2.0,
            cpu_probe: 1.0,
            cpu_output: 0.5,
            aip_probe: 0.4,
            aip_insert: 0.5,
            state_scan: 0.3,
            // 10 Mbps (the paper's default WAN assumption) expressed as
            // bytes per microsecond-equivalent unit: 1.25 bytes/unit.
            net_bytes_per_unit: 1.25,
            net_latency: 20_000.0,
            cpu_shuffle_row: 0.8,
        }
    }
}

impl CostModel {
    /// A model with network parameters for a given bandwidth in Mbps.
    pub fn with_bandwidth_mbps(mut self, mbps: f64) -> Self {
        self.net_bytes_per_unit = mbps * 1_000_000.0 / 8.0 / 1_000_000.0;
        self
    }

    /// Cost of a symmetric hash join processing `left` and `right` input
    /// rows and emitting `out` rows: both sides build + probe.
    pub fn join_cost(&self, left: f64, right: f64, out: f64) -> f64 {
        (self.cpu_build + self.cpu_probe) * (left.max(0.0) + right.max(0.0))
            + self.cpu_output * out.max(0.0)
    }

    /// Cost of hash aggregation over `rows` inputs.
    pub fn agg_cost(&self, rows: f64) -> f64 {
        (self.cpu_build + self.cpu_probe) * rows.max(0.0)
    }

    /// Cost of constructing an AIP set by scanning `state_rows` buffered
    /// rows and inserting their keys (Fig. 4 line 2, `createCost`).
    pub fn aip_create_cost(&self, state_rows: f64) -> f64 {
        (self.state_scan + self.aip_insert) * state_rows.max(0.0)
    }

    /// Cost of probing `rows` against one injected filter.
    pub fn aip_filter_cost(&self, rows: f64) -> f64 {
        self.aip_probe * rows.max(0.0)
    }

    /// Cost of shipping `bytes` over the configured link.
    pub fn ship_cost(&self, bytes: f64) -> f64 {
        self.net_latency + bytes.max(0.0) / self.net_bytes_per_unit
    }

    /// Cost of hash-routing `rows` through a shuffle mesh.
    pub fn shuffle_cost(&self, rows: f64) -> f64 {
        self.cpu_shuffle_row * rows.max(0.0)
    }

    /// Should a non-co-partitioned join repartition (`moved` rows through
    /// shuffle meshes, then a `dop`-way parallel join) rather than fall
    /// back to a serial join above a merge? Compares per-worker critical
    /// path: the parallel join does 1/dop of the build/probe work but pays
    /// the mesh hop for every moved row. Assumes uniform keys; skewed
    /// streams should use [`CostModel::repartition_wins_skewed`].
    pub fn repartition_wins(&self, left: f64, right: f64, out: f64, moved: f64, dop: u32) -> bool {
        self.repartition_wins_skewed(left, right, out, moved, dop, 1.0)
    }

    /// Critical-path multiplier of hash-partitioning a stream whose
    /// hottest key holds `hot_frac` of the rows: every row of that key
    /// lands on one worker, so the slowest partition processes at least
    /// `max(1/dop, hot_frac)` of the stream — `skew_factor` is that share
    /// relative to the uniform `1/dop`. 1.0 = perfectly splittable.
    pub fn skew_factor(&self, hot_frac: f64, dop: u32) -> f64 {
        let d = dop.max(1) as f64;
        (hot_frac.clamp(0.0, 1.0) * d).max(1.0)
    }

    /// [`CostModel::repartition_wins`] with the uniform-keys assumption
    /// removed: `skew` (≥ 1, from [`CostModel::skew_factor`]) inflates the
    /// parallel join's per-worker share, so a Zipf-hot key that would pile
    /// onto one reader makes the serial fallback win where the uniform
    /// model would shuffle and stall.
    pub fn repartition_wins_skewed(
        &self,
        left: f64,
        right: f64,
        out: f64,
        moved: f64,
        dop: u32,
        skew: f64,
    ) -> bool {
        let d = (dop.max(1)) as f64;
        let sf = skew.max(1.0);
        let serial = self.join_cost(left, right, out);
        let parallel = self.join_cost(left * sf / d, right * sf / d, out * sf / d)
            + self.shuffle_cost(moved / d);
        parallel < serial
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_cost_monotone_in_inputs() {
        let m = CostModel::default();
        assert!(m.join_cost(100.0, 100.0, 10.0) < m.join_cost(1000.0, 100.0, 10.0));
        assert!(m.join_cost(100.0, 100.0, 10.0) < m.join_cost(100.0, 100.0, 1000.0));
    }

    #[test]
    fn filtering_a_join_input_saves_cost() {
        // The core inequality behind ESTIMATEBENEFIT: COST(n ⋈ n') >
        // COST((n < A) ⋈ n') when the filter is selective.
        let m = CostModel::default();
        let full = m.join_cost(10_000.0, 500.0, 2_000.0);
        let filtered = m.join_cost(1_000.0, 500.0, 2_000.0) + m.aip_filter_cost(10_000.0);
        assert!(filtered < full, "{filtered} vs {full}");
    }

    #[test]
    fn unselective_filter_does_not_pay() {
        let m = CostModel::default();
        let full = m.join_cost(10_000.0, 500.0, 2_000.0);
        // Filter keeps 99.5% of rows: benefit below probe overhead.
        let filtered = m.join_cost(9_950.0, 500.0, 2_000.0) + m.aip_filter_cost(10_000.0);
        assert!(filtered > full - m.aip_create_cost(500.0));
    }

    #[test]
    fn ship_cost_scales_with_bytes_and_bandwidth() {
        let slow = CostModel::default().with_bandwidth_mbps(10.0);
        let fast = CostModel::default().with_bandwidth_mbps(100.0);
        let bytes = 100_000.0;
        assert!(slow.ship_cost(bytes) > fast.ship_cost(bytes));
        assert!(slow.ship_cost(bytes) > slow.ship_cost(0.0));
    }

    #[test]
    fn negative_inputs_clamped() {
        let m = CostModel::default();
        assert_eq!(m.join_cost(-5.0, -5.0, -5.0), 0.0);
        assert_eq!(m.aip_create_cost(-1.0), 0.0);
    }

    #[test]
    fn skew_factor_tracks_hot_share() {
        let m = CostModel::default();
        // Uniform keys: splitting is perfect.
        assert_eq!(m.skew_factor(0.0, 4), 1.0);
        assert_eq!(m.skew_factor(0.25, 4), 1.0);
        // A 50%-hot key at dop 4 doubles the critical path.
        assert!((m.skew_factor(0.5, 4) - 2.0).abs() < 1e-9);
        // Everything-hot collapses to serial (dop× the fair share).
        assert!((m.skew_factor(1.0, 4) - 4.0).abs() < 1e-9);
        assert_eq!(m.skew_factor(2.0, 4), 4.0); // clamped
    }

    #[test]
    fn skew_disables_repartition_where_uniform_allows_it() {
        let m = CostModel::default();
        let (l, r, out, moved) = (1e5, 1e5, 1e5, 1e5);
        assert!(m.repartition_wins(l, r, out, moved, 4));
        // A fully hot key leaves no parallelism to win: the skewed model
        // must reject what the uniform model accepts.
        assert!(!m.repartition_wins_skewed(l, r, out, moved, 4, m.skew_factor(1.0, 4)));
        // repartition_wins == skew factor 1.
        assert_eq!(
            m.repartition_wins(l, r, out, moved, 4),
            m.repartition_wins_skewed(l, r, out, moved, 4, 1.0)
        );
    }
}
