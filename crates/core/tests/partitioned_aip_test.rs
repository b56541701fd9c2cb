//! Partition-parallel AIP: every strategy, run through `run_query_dop` at
//! several degrees of parallelism over Zipf-skewed data, must agree with
//! the single-threaded oracle — and the per-partition taps must actually
//! fire.

use sip_common::trace::FilterEventKind;
use sip_core::{
    run_query_dop, AipConfig, AipRegistry, CostBased, FeedForward, QuerySpec, Strategy,
};
use sip_data::{generate, Catalog, TpchConfig};
use sip_engine::{canonical, execute_oracle, DelayModel, ExecMonitor, ExecOptions};
use sip_expr::{AggFunc, CmpOp, Expr};
use sip_optimizer::CostModel;
use sip_parallel::PartitionedExec;
use sip_plan::{PredicateIndex, QueryBuilder};
use std::sync::Arc;
use std::time::Duration;

fn skewed_catalog() -> Catalog {
    generate(&TpchConfig {
        scale_factor: 0.01,
        seed: 7,
        zipf_z: 0.5,
    })
    .unwrap()
}

/// Fig. 1 miniature with a selective part filter: the filtered part side
/// completes early and prunes both partsupp scans — per partition.
fn partkey_query(c: &Catalog) -> QuerySpec {
    let mut q = QueryBuilder::new(c);
    let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
    let pred = p.col("p_size").unwrap().cmp(CmpOp::Lt, Expr::lit(10i64));
    let p = q.filter(p, pred);
    let ps1 = q.scan("partsupp", "ps1", &["ps_partkey"]).unwrap();
    let j1 = q
        .join(p, ps1, &[("p.p_partkey", "ps1.ps_partkey")])
        .unwrap();
    let ps2 = q
        .scan("partsupp", "ps2", &["ps_partkey", "ps_availqty"])
        .unwrap();
    let qty = ps2.col("ps_availqty").unwrap();
    let avail = q
        .aggregate(ps2, &["ps_partkey"], &[(AggFunc::Sum, qty, "avail")])
        .unwrap();
    let j2 = q
        .join(j1, avail, &[("p.p_partkey", "ps2.ps_partkey")])
        .unwrap();
    let total = j2.col("avail").unwrap();
    let sum = q
        .aggregate(j2, &[], &[(AggFunc::Sum, total, "grand")])
        .unwrap();
    QuerySpec::new(sum.into_plan(), q.into_attrs()).unwrap()
}

#[test]
fn all_strategies_agree_with_oracle_across_dops() {
    let c = skewed_catalog();
    let spec = partkey_query(&c);
    let phys = spec.lower(&c, Strategy::Baseline).unwrap();
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for strategy in Strategy::ALL {
        for dop in [1u32, 2, 4] {
            let (out, map) = run_query_dop(
                &spec,
                &c,
                strategy,
                ExecOptions::default(),
                &AipConfig::paper(),
                dop,
            )
            .unwrap();
            assert_eq!(
                canonical(&out.rows),
                expected,
                "strategy {strategy} dop {dop} diverged"
            );
            assert_eq!(map.is_some(), dop > 1, "partitioned path at dop {dop}");
        }
    }
}

#[test]
fn partitioned_feed_forward_prunes_per_partition() {
    let c = skewed_catalog();
    let spec = partkey_query(&c);
    // Hold both partsupp scans back until the filtered part side has
    // completed, so the feed-forward filter lands before the probe-side
    // rows flow instead of racing them. Every partition clone of a scan
    // keeps its binding, so the delay applies to each clone.
    let first_wait = DelayModel::initial_only(Duration::from_millis(25));
    let opts = ExecOptions::default()
        .with_delay("ps1", first_wait.clone())
        .with_delay("ps2", first_wait);
    let (out, map) = run_query_dop(
        &spec,
        &c,
        Strategy::FeedForward,
        opts,
        &AipConfig::paper(),
        4,
    )
    .unwrap();
    let map = map.expect("partitioned");
    assert!(out.metrics.filters_injected > 0, "no filters injected");
    assert!(
        out.metrics.aip_dropped_total > 0,
        "AIP never pruned anything"
    );
    // Per-partition rollup: filters fired inside worker partitions, not
    // just in the serial tail.
    let rollup = out.metrics.per_partition(&map);
    assert_eq!(rollup.len(), 4);
    let partition_drops: u64 = rollup.iter().map(|s| s.aip_dropped).sum();
    assert!(partition_drops > 0, "no per-partition pruning: {rollup:?}");
}

/// Both controllers share one union tracker: when every partition of one
/// producer publishes its scoped set, the OR-merge injects one plan-wide
/// unscoped filter — recorded as an `or_merged` filter event and a
/// `[union of 3 parts]` registry entry — and results stay exact.
fn assert_or_merges_plan_wide(
    c: &Catalog,
    spec: &QuerySpec,
    strategy: Strategy,
    monitor: Arc<dyn ExecMonitor>,
    registry: Arc<AipRegistry>,
) {
    let phys = spec.lower(c, strategy).unwrap();
    let expected = canonical(&execute_oracle(&phys).unwrap());
    // Delay the probed fact source (both partsupp scans) so every
    // partition's build side completes while its users are still live —
    // the cost-based acceptance decision is then deterministic across
    // schedules.
    let opts = ExecOptions::default().with_delay("partsupp", DelayModel::paper_delayed());
    let (out, map) = PartitionedExec::new(3)
        .execute(Arc::new(phys), monitor, opts)
        .unwrap();
    assert!(map.is_some(), "{strategy}: partitioned path must run");
    assert_eq!(canonical(&out.rows), expected, "{strategy} diverged");
    let events = &out.metrics.filter_events;
    assert!(
        events.iter().any(|e| e.kind == FilterEventKind::OrMerged),
        "{strategy}: no or_merged filter event: {events:?}"
    );
    // The merged set reached the registry as a plan-wide publication.
    let display = registry.display();
    assert!(
        display.contains("union of 3 parts"),
        "{strategy}: no union in the registry:\n{display}"
    );
}

#[test]
fn feed_forward_or_merges_partition_sets_plan_wide() {
    let c = skewed_catalog();
    let spec = partkey_query(&c);
    let eq = PredicateIndex::build(&spec.plan).eq;
    let ff = FeedForward::new(eq, AipConfig::hash_sets());
    assert_or_merges_plan_wide(&c, &spec, Strategy::FeedForward, ff.clone(), ff.registry());
}

#[test]
fn cost_based_or_merges_partition_sets_plan_wide() {
    let c = skewed_catalog();
    let spec = partkey_query(&c);
    let eq = PredicateIndex::build(&spec.plan).eq;
    let cb = CostBased::new(eq, AipConfig::hash_sets(), CostModel::default());
    assert_or_merges_plan_wide(&c, &spec, Strategy::CostBased, cb.clone(), cb.registry());
    let decisions = cb.decisions();
    assert!(
        decisions.iter().any(|d| d.starts_with("union")),
        "no cross-partition OR-merge logged:\n{}",
        decisions.join("\n")
    );
}

#[test]
fn exact_hash_sets_or_merge_across_partitions() {
    // Hash AIP sets union losslessly, so the plan-wide OR-merge path runs
    // to completion (Bloom unions depend on same-geometry partials).
    let c = skewed_catalog();
    let spec = partkey_query(&c);
    let phys = spec.lower(&c, Strategy::Baseline).unwrap();
    let expected = canonical(&execute_oracle(&phys).unwrap());
    let (out, _) = run_query_dop(
        &spec,
        &c,
        Strategy::FeedForward,
        ExecOptions::default(),
        &AipConfig::hash_sets(),
        3,
    )
    .unwrap();
    assert_eq!(canonical(&out.rows), expected);
    assert!(out.metrics.filters_injected > 0);
}
