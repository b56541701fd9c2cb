//! Distributed execution (§V-B) must be result-identical to local
//! execution for the Table I distributed queries, under every strategy,
//! with and without source delays — and shipped filters must never lose
//! rows (the Bloomjoin no-false-negatives guarantee, end to end).

use sip::core::{AipConfig, QuerySpec, Strategy};
use sip::data::{generate, Catalog, TpchConfig};
use sip::engine::{canonical, execute_oracle, ExecOptions, PhysKind};
use sip::net::{run_distributed, DistributedRun, LinkSpec, RemoteConfig};
use sip::queries::{build_query, query_def};
use std::time::Duration;

fn fast_link() -> LinkSpec {
    // High bandwidth so tests stay quick; the protocol path is identical.
    LinkSpec {
        bandwidth_mbps: 2_000.0,
        latency: Duration::from_micros(100),
    }
}

/// The oracle's canonical result for `spec`.
fn expected(spec: &QuerySpec, catalog: &Catalog) -> Vec<String> {
    let phys = spec.lower(catalog, Strategy::Baseline).unwrap();
    canonical(&execute_oracle(&phys).unwrap())
}

/// Run query `id` with its Table I remote table served over `link`.
fn remote(
    id: &str,
    spec: &QuerySpec,
    catalog: &Catalog,
    strategy: Strategy,
    options: ExecOptions,
    link: LinkSpec,
) -> DistributedRun {
    let cfg = RemoteConfig::new(query_def(id).unwrap().remote_table.unwrap(), link);
    run_distributed(spec, catalog, strategy, options, &AipConfig::paper(), &cfg).unwrap()
}

const REMOTE_STRATEGIES: [Strategy; 3] = [
    Strategy::Baseline,
    Strategy::FeedForward,
    Strategy::CostBased,
];

#[test]
fn distributed_queries_match_local_oracle() {
    let catalog = generate(&TpchConfig::uniform(0.004)).unwrap();
    for id in ["Q1C", "Q3C"] {
        let spec = build_query(id, &catalog).unwrap();
        let expected = expected(&spec, &catalog);
        for strategy in REMOTE_STRATEGIES {
            let opts = ExecOptions::default();
            let run = remote(id, &spec, &catalog, strategy, opts, fast_link());
            assert_eq!(
                canonical(&run.output.rows),
                expected,
                "{id}/{strategy} diverged from local oracle"
            );
        }
    }
}

#[test]
fn shipped_filters_save_bytes_without_losing_rows() {
    let catalog = generate(&TpchConfig::uniform(0.008)).unwrap();
    let spec = build_query("Q1C", &catalog).unwrap();
    let expected = expected(&spec, &catalog);
    let run = |strategy| {
        let opts = ExecOptions::default();
        remote(
            "Q1C",
            &spec,
            &catalog,
            strategy,
            opts,
            LinkSpec::lan_100mbps(),
        )
    };
    let (base, cb) = (run(Strategy::Baseline), run(Strategy::CostBased));
    assert_eq!(canonical(&base.output.rows), expected);
    assert_eq!(canonical(&cb.output.rows), expected);
    let (base_bytes, cb_bytes) = (base.net.row_bytes(), cb.net.row_bytes());
    assert!(
        cb_bytes < base_bytes,
        "CB should ship fewer row bytes: {cb_bytes} vs {base_bytes}"
    );
    // And the filter itself was shipped (and paid for).
    assert!(cb.net.filters_shipped > 0);
    assert!(cb.net.filter_bytes > 0);
}

#[test]
fn distributed_with_delayed_local_sources_still_correct() {
    let catalog = generate(&TpchConfig::uniform(0.004)).unwrap();
    let spec = build_query("Q3C", &catalog).unwrap();
    let expected = expected(&spec, &catalog);
    for strategy in [Strategy::FeedForward, Strategy::CostBased] {
        let opts = ExecOptions::default().with_delay(
            "part",
            sip::engine::DelayModel::initial_only(Duration::from_millis(40)),
        );
        let run = remote("Q3C", &spec, &catalog, strategy, opts, fast_link());
        assert_eq!(canonical(&run.output.rows), expected, "{strategy}");
    }
}

/// Each remote row is probed once, at the site: every row a remote scan
/// reads either crosses the link or is pruned there, and the scans'
/// counters are the link's counters.
#[test]
fn remote_scans_account_for_every_row_once() {
    let catalog = generate(&TpchConfig::uniform(0.004)).unwrap();
    for id in ["Q1C", "Q3C"] {
        let spec = build_query(id, &catalog).unwrap();
        let remote_table = query_def(id).unwrap().remote_table.unwrap();
        for strategy in [Strategy::FeedForward, Strategy::CostBased] {
            let opts = ExecOptions::default();
            let run = remote(id, &spec, &catalog, strategy, opts, LinkSpec::lan_100mbps());
            let phys = spec.lower(&catalog, strategy).unwrap();
            let mut pruned = 0;
            for node in &phys.nodes {
                let PhysKind::Scan { table, .. } = &node.kind else {
                    continue;
                };
                if table.name() != remote_table {
                    continue;
                }
                let m = &run.output.metrics.per_op[node.id.index()];
                assert_eq!(
                    m.rows_out + m.aip_dropped,
                    table.len() as u64,
                    "{id}/{strategy}: remote scan {} shipped {} + pruned {}",
                    node.id,
                    m.rows_out,
                    m.aip_dropped
                );
                pruned += m.aip_dropped;
            }
            assert_eq!(pruned, run.net.rows_pruned_remote, "{id}/{strategy}");
        }
    }
}
