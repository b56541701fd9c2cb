//! Distributed execution: remote scans over simulated links, with
//! AIP-filter shipping.

use sip_common::trace::FilterEventKind;
use sip_common::{OpId, Result, SipError};
use sip_core::{AipConfig, QuerySpec, Strategy};
use sip_engine::{
    execute_with_recovery, ExecMetrics, ExecOptions, LinkSpec, PhysKind, QueryOutput, SourceModel,
};
use sip_optimizer::CostModel;
use std::sync::Arc;

/// Configuration of the distributed setting.
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// Tables served by the remote site (scans of these become remote).
    pub remote_tables: Vec<String>,
    /// The master ↔ site link.
    pub link: LinkSpec,
}

impl RemoteConfig {
    /// One remote table over a link.
    pub fn new(table: impl Into<String>, link: LinkSpec) -> Self {
        RemoteConfig {
            remote_tables: vec![table.into()],
            link,
        }
    }
}

/// Network counters for one run, read from its metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Rows that crossed the link: the remote scans' `rows_out`.
    pub rows_shipped: u64,
    /// Rows pruned at the remote site by shipped filters: the remote
    /// scans' `aip_dropped`.
    pub rows_pruned_remote: u64,
    /// Filters shipped master → site (the run's `Shipped` filter events).
    pub filters_shipped: u64,
    /// Payload bytes of those filters.
    pub filter_bytes: u64,
    /// Bytes over the link in both directions
    /// ([`ExecMetrics::network_bytes`]).
    network_bytes: u64,
}

impl NetStats {
    /// Read the counters of the remote scans `sites` from a finished run.
    fn of(metrics: &ExecMetrics, sites: &[OpId]) -> Self {
        let shipped = || {
            metrics
                .filter_events
                .iter()
                .filter(|e| e.kind == FilterEventKind::Shipped)
        };
        let scans = || sites.iter().map(|op| &metrics.per_op[op.index()]);
        NetStats {
            rows_shipped: scans().map(|m| m.rows_out).sum(),
            rows_pruned_remote: scans().map(|m| m.aip_dropped).sum(),
            filters_shipped: shipped().count() as u64,
            filter_bytes: shipped().map(|e| e.bytes).sum(),
            network_bytes: metrics.network_bytes,
        }
    }

    /// Total bytes over the link in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.network_bytes
    }

    /// Row payload bytes that crossed the link.
    pub fn row_bytes(&self) -> u64 {
        self.network_bytes - self.filter_bytes
    }
}

/// Result of a distributed run.
#[derive(Debug)]
pub struct DistributedRun {
    /// The query output (rows + engine metrics).
    pub output: QueryOutput,
    /// Link counters.
    pub net: NetStats,
}

/// Execute `spec` with the configured tables fetched from a simulated
/// remote site, under any strategy. Cost-based AIP prices filter shipping
/// at the link's cost-per-byte, as in §V-B. Link failures are scan faults
/// and heal through the options' retry policy like any other.
pub fn run_distributed(
    spec: &QuerySpec,
    catalog: &sip_data::Catalog,
    strategy: Strategy,
    options: ExecOptions,
    aip: &AipConfig,
    remote: &RemoteConfig,
) -> Result<DistributedRun> {
    let options = remote.remote_tables.iter().fold(options, |o, table| {
        o.with_remote(table.as_str(), remote.link)
    });
    let phys = spec.lower(catalog, strategy)?;
    let sites: Vec<OpId> = phys
        .nodes
        .iter()
        .filter(|n| match &n.kind {
            PhysKind::Scan { table, binding, .. } => matches!(
                options.source_for(binding, table.name()),
                Some(SourceModel::Remote(_))
            ),
            _ => false,
        })
        .map(|n| n.id)
        .collect();
    if sites.is_empty() {
        return Err(SipError::Net(format!(
            "no scans of {:?} found in the plan",
            remote.remote_tables
        )));
    }
    let aip = AipConfig {
        ship_cost_per_byte: remote.link.cost_per_byte(),
        ..aip.clone()
    };
    let cost = CostModel::default().with_bandwidth_mbps(remote.link.bandwidth_mbps);
    let monitor = spec.monitor(strategy, &aip, cost);
    let output = execute_with_recovery(Arc::new(phys), monitor, options)?;
    let net = NetStats::of(&output.metrics, &sites);
    Ok(DistributedRun { output, net })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_common::retry::{self, RetryPolicy};
    use sip_core::run_query;
    use sip_data::{generate, Catalog, TpchConfig};
    use sip_engine::{canonical, FaultKind, FaultPlan};
    use sip_queries::build_query;
    use std::time::Duration;

    fn fast_link() -> LinkSpec {
        LinkSpec {
            bandwidth_mbps: 2_000.0,
            latency: Duration::from_micros(200),
        }
    }

    /// The catalog and one of its queries.
    fn query(id: &str) -> (Catalog, QuerySpec) {
        let c = generate(&TpchConfig::uniform(0.004)).unwrap();
        let spec = build_query(id, &c).unwrap();
        (c, spec)
    }

    fn local(spec: &QuerySpec, c: &Catalog, strategy: Strategy) -> QueryOutput {
        let opts = ExecOptions::default();
        run_query(spec, c, strategy, opts, &AipConfig::paper()).unwrap()
    }

    /// Run with partsupp remote over `link`.
    fn remote(
        spec: &QuerySpec,
        c: &Catalog,
        strategy: Strategy,
        options: ExecOptions,
        link: LinkSpec,
    ) -> Result<DistributedRun> {
        let cfg = RemoteConfig::new("partsupp", link);
        run_distributed(spec, c, strategy, options, &AipConfig::paper(), &cfg)
    }

    /// The operator id of the plan's partsupp scan.
    fn partsupp_scan(spec: &QuerySpec, c: &Catalog) -> u32 {
        let phys = spec.lower(c, Strategy::Baseline).unwrap();
        let node = phys.nodes.iter().find(
            |n| matches!(&n.kind, PhysKind::Scan { table, .. } if table.name() == "partsupp"),
        );
        node.expect("a partsupp scan").id.0
    }

    /// Baseline with partsupp remote, a fault at its scan, and a retry
    /// budget of four attempts.
    fn faulted(spec: &QuerySpec, c: &Catalog, faults: FaultPlan) -> Result<DistributedRun> {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            ..RetryPolicy::with_attempts(4)
        };
        let opts = ExecOptions::default()
            .with_faults(faults)
            .with_retry(policy);
        remote(spec, c, Strategy::Baseline, opts, fast_link())
    }

    #[test]
    fn distributed_matches_local_results() {
        let (c, spec) = query("Q3A");
        let expected = canonical(&local(&spec, &c, Strategy::Baseline).rows);
        for strategy in [
            Strategy::Baseline,
            Strategy::FeedForward,
            Strategy::CostBased,
        ] {
            let run = remote(&spec, &c, strategy, ExecOptions::default(), fast_link()).unwrap();
            let rows = canonical(&run.output.rows);
            assert_eq!(rows, expected, "{strategy} distributed diverged");
            assert!(run.net.rows_shipped > 0);
        }
    }

    #[test]
    fn filters_reduce_shipped_bytes() {
        // Delay-free FF on Q3A: the local part/supplier side completes fast,
        // a partkey filter ships to the site, and remote pruning cuts row
        // bytes relative to baseline.
        let (c, spec) = query("Q3A");
        let link = LinkSpec::lan_100mbps();
        let opts = ExecOptions::default;
        let base = remote(&spec, &c, Strategy::Baseline, opts(), link).unwrap();
        let ff = remote(&spec, &c, Strategy::FeedForward, opts(), link).unwrap();
        let (base_bytes, ff_bytes) = (base.net.row_bytes(), ff.net.row_bytes());
        assert!(
            ff_bytes < base_bytes,
            "FF shipped {ff_bytes} vs baseline {base_bytes}"
        );
        assert!(ff.net.rows_pruned_remote > 0);
    }

    #[test]
    fn network_bytes_are_the_link_bytes() {
        let (c, spec) = query("Q3C");
        let opts = ExecOptions::default();
        let run = remote(&spec, &c, Strategy::FeedForward, opts, fast_link()).unwrap();
        assert!(run.net.total_bytes() > 0);
        assert_eq!(run.output.metrics.network_bytes, run.net.total_bytes());
        let spec = build_query("Q3A", &c).unwrap();
        let local = local(&spec, &c, Strategy::FeedForward);
        assert_eq!(local.metrics.network_bytes, 0);
    }

    #[test]
    fn missing_remote_table_is_an_error() {
        let (c, spec) = query("Q4A");
        let cfg = RemoteConfig::new("part_does_not_appear", fast_link());
        let opts = ExecOptions::default();
        let strategy = Strategy::Baseline;
        assert!(run_distributed(&spec, &c, strategy, opts, &AipConfig::paper(), &cfg).is_err());
    }

    #[test]
    fn dropped_link_retries_within_budget_and_recovers() {
        let (c, spec) = query("Q3A");
        // The link drops twice after the first batch: two failed attempts,
        // then the third completes exactly.
        let ps = partsupp_scan(&spec, &c);
        let drop_twice = FaultPlan::none().with_op_fault_times(ps, 1, FaultKind::Error, 2);
        let run = faulted(&spec, &c, drop_twice).unwrap();
        assert_eq!(
            canonical(&run.output.rows),
            canonical(&local(&spec, &c, Strategy::Baseline).rows),
            "retried run diverged from local"
        );
        assert!(run.output.metrics.recovered);
        assert_eq!(run.output.metrics.attempts, 3);
        assert!(run.net.rows_shipped > 0);
    }

    #[test]
    fn permanently_dead_link_fails_after_retries() {
        let (c, spec) = query("Q3A");
        let ps = partsupp_scan(&spec, &c);
        let dead = FaultPlan::none().with_op_fault(ps, 0, FaultKind::Error);
        let err = faulted(&spec, &c, dead).unwrap_err();
        let msg = err.to_string();
        // The shared retry machinery marks the error exhausted, so an
        // outer recovery scope never re-spends its own budget on it.
        assert!(
            retry::is_exhausted(&err),
            "exhaustion must carry the RetryPolicy marker: {msg}"
        );
        assert!(
            msg.contains(&format!("Scan op {ps}")),
            "error must name the remote scan: {msg}"
        );
    }

    #[test]
    fn hanging_link_recovers_without_retries() {
        let (c, spec) = query("Q3A");
        let ps = partsupp_scan(&spec, &c);
        let hang = FaultKind::Stall(Duration::from_millis(2));
        let run = faulted(&spec, &c, FaultPlan::none().with_op_fault(ps, 1, hang)).unwrap();
        assert_eq!(
            canonical(&run.output.rows),
            canonical(&local(&spec, &c, Strategy::Baseline).rows)
        );
        // A hang delays delivery but never fails the attempt.
        assert_eq!(run.output.metrics.attempts, 1);
        assert!(!run.output.metrics.recovered);
    }
}
