//! Differential suite for the parallel executor: every catalog query, at
//! every dop in {1, 2, 4, 8}, under every AIP strategy, must produce the
//! serial oracle's row multiset — including the multi-class join chains
//! (TPC-H 5/9 shapes) that previously collapsed to the serial fallback and
//! now repartition through shuffle meshes — plus a correlated-skew
//! workload whose filtered stream no base-table statistic predicts.

use sip_common::{DataType, Field, Row, Schema, Value};
use sip_core::{run_query_dop, AipConfig, Strategy};
use sip_data::{generate, Catalog, Table, TpchConfig};
use sip_engine::{
    canonical, execute_ctx, execute_oracle, lower, ExecContext, ExecMonitor, ExecOptions,
    NoopMonitor, PhysKind, PhysPlan,
};
use sip_expr::Expr;
use sip_parallel::{partition_plan, partition_plan_cfg, PartitionConfig, PartitionedExec};
use sip_plan::{PredicateIndex, QueryBuilder};
use sip_queries::{all_queries, build_query};
use std::sync::Arc;

const DOPS: [u32; 4] = [1, 2, 4, 8];

fn catalog() -> sip_data::Catalog {
    generate(&TpchConfig {
        scale_factor: 0.004,
        seed: 0x5EED,
        zipf_z: 0.5,
    })
    .unwrap()
}

fn check_all(strategy: Strategy) {
    let catalog = catalog();
    for def in all_queries() {
        let spec = build_query(def.id, &catalog).unwrap();
        let phys = spec.lower(&catalog, Strategy::Baseline).unwrap();
        let expected = canonical(&execute_oracle(&phys).unwrap());
        for dop in DOPS {
            let (out, map) = run_query_dop(
                &spec,
                &catalog,
                strategy,
                ExecOptions::default(),
                &AipConfig::paper(),
                dop,
            )
            .unwrap();
            assert_eq!(
                canonical(&out.rows),
                expected,
                "{} diverged from serial at dop {dop} under {strategy}",
                def.id
            );
            assert_eq!(
                map.is_some(),
                dop > 1,
                "{} took the wrong execution path at dop {dop}",
                def.id
            );
        }
    }
}

#[test]
fn baseline_matches_serial_at_every_dop() {
    check_all(Strategy::Baseline);
}

#[test]
fn feedforward_matches_serial_at_every_dop() {
    check_all(Strategy::FeedForward);
}

#[test]
fn costbased_matches_serial_at_every_dop() {
    check_all(Strategy::CostBased);
}

/// The acceptance bar for mid-plan repartitioning: the TPC-H 5/9-shaped
/// catalog queries execute at dop = 4 with **no serial join** — every
/// join/semijoin clone belongs to a partition, the plan dump contains
/// shuffle nodes, and results are identical to dop = 1.
#[test]
fn multi_class_chains_stay_parallel_end_to_end() {
    let catalog = catalog();
    for id in ["Q4A", "Q5A", "Q1A"] {
        let spec = build_query(id, &catalog).unwrap();
        let phys = spec.lower(&catalog, Strategy::Baseline).unwrap();
        let (expanded, map) = partition_plan(&phys, 4).unwrap();
        let serial_joins = expanded
            .nodes
            .iter()
            .filter(|n| {
                matches!(
                    n.kind,
                    PhysKind::HashJoin { .. } | PhysKind::SemiJoin { .. }
                ) && map.partition(n.id).is_none()
            })
            .count();
        assert_eq!(
            serial_joins,
            0,
            "{id} fell back to a serial join:\n{}",
            expanded.display()
        );
        assert!(
            expanded
                .nodes
                .iter()
                .any(|n| matches!(n.kind, PhysKind::ShuffleWrite { .. })),
            "{id} expanded without a shuffle:\n{}",
            expanded.display()
        );
        // Byte-identical results: dop 4 vs dop 1 (canonicalized, since the
        // threaded engine emits in nondeterministic order).
        let expected = canonical(&execute_oracle(&phys).unwrap());
        let (out1, _) = run_query_dop(
            &spec,
            &catalog,
            Strategy::FeedForward,
            ExecOptions::default(),
            &AipConfig::paper(),
            1,
        )
        .unwrap();
        let (out4, _) = run_query_dop(
            &spec,
            &catalog,
            Strategy::FeedForward,
            ExecOptions::default(),
            &AipConfig::paper(),
            4,
        )
        .unwrap();
        assert_eq!(canonical(&out1.rows), expected, "{id} dop 1");
        assert_eq!(canonical(&out4.rows), expected, "{id} dop 4");
    }
}

/// Admit-batch differential parity at dop ∈ {1, 2, 4} × batch sizes
/// {1, 63, 64, 65}: self-checking collectors
/// ([`sip_engine::testkit::install_admit_parity`]) at every stateful input
/// of the (expanded) plan verify that the batched AIP build produces
/// byte-identical working sets — and exactly equal `aip_probed` /
/// `aip_dropped` counters when probed — versus the per-row `admit` replay.
/// `EX` covers joins/aggregates through partitioned clones; the
/// magic-rewritten `Q3A` adds semijoin admit sites.
#[test]
fn admit_batch_parity_across_dop_and_batch_sizes() {
    let catalog = catalog();
    for (id, strategy) in [("EX", Strategy::Baseline), ("Q3A", Strategy::Magic)] {
        let spec = build_query(id, &catalog).unwrap();
        let phys = Arc::new(spec.lower(&catalog, strategy).unwrap());
        let expected = canonical(&execute_oracle(&phys).unwrap());
        let mut semi_seen = false;
        for dop in [1u32, 2, 4] {
            for batch in [1usize, 63, 64, 65] {
                let opts = ExecOptions::validated(batch, 2).unwrap();
                let (plan, ctx) = if dop == 1 {
                    (Arc::clone(&phys), ExecContext::new(Arc::clone(&phys), opts))
                } else {
                    let (expanded, map) = partition_plan(&phys, dop).unwrap();
                    (
                        Arc::clone(&expanded),
                        ExecContext::new_partitioned(expanded, opts, map),
                    )
                };
                semi_seen |= plan
                    .nodes
                    .iter()
                    .any(|n| matches!(n.kind, PhysKind::SemiJoin { .. }));
                let (outcome, installed) = sip_engine::testkit::install_admit_parity(&ctx, &plan);
                assert!(installed >= 2, "{id} dop {dop}: too few stateful inputs");
                let out = execute_ctx(Arc::clone(&ctx), Arc::new(NoopMonitor)).unwrap();
                assert_eq!(
                    canonical(&out.rows),
                    expected,
                    "{id} dop {dop} batch {batch} diverged"
                );
                let errs = outcome.errors.lock().unwrap();
                assert!(
                    errs.is_empty(),
                    "{id} dop {dop} batch {batch}:\n{}",
                    errs.join("\n")
                );
                assert_eq!(
                    *outcome.finished.lock().unwrap(),
                    installed,
                    "{id} dop {dop} batch {batch}: every collector must finish once"
                );
            }
        }
        if strategy == Strategy::Magic {
            assert!(semi_seen, "{id}: magic rewrite produced no semijoin");
        }
    }
}

/// Tree-merge row conservation under Zipf skew: a forced binary merge tail
/// at dop 4 and the auto tree at dop 8 must conserve the serial plan's
/// exact row multiset over the skewed catalog under feed-forward AIP,
/// every partition must report in the rollup, and the forced plan must
/// actually stack merges.
#[test]
fn tree_merge_conserves_rows_under_zipf_skew() {
    let catalog = catalog(); // zipf_z = 0.5
    for id in ["EX", "Q4A"] {
        let spec = build_query(id, &catalog).unwrap();
        let phys = Arc::new(spec.lower(&catalog, Strategy::FeedForward).unwrap());
        let expected = canonical(&execute_oracle(&phys).unwrap());
        for (dop, fanin) in [(4u32, 2u32), (8, 0)] {
            let cfg = PartitionConfig {
                merge_fanin: fanin,
                ..Default::default()
            };
            let ff = sip_core::FeedForward::new(
                PredicateIndex::build(&spec.plan).eq,
                AipConfig::paper(),
            );
            let (out, map) = PartitionedExec::with_config(dop, cfg)
                .execute(
                    Arc::clone(&phys),
                    ff,
                    ExecOptions::validated(64, 2).unwrap(),
                )
                .unwrap();
            let map = map.expect("partitioned path");
            assert_eq!(
                canonical(&out.rows),
                expected,
                "{id} dop {dop} fanin {fanin} lost or duplicated rows"
            );
            let rollup = out.metrics.per_partition(&map);
            assert_eq!(rollup.len(), dop as usize, "{id} dop {dop} rollup");
        }
    }
    // The forced-fanin expansion stacks merges (a Merge feeding a Merge).
    let spec = build_query("EX", &catalog).unwrap();
    let phys = spec.lower(&catalog, Strategy::Baseline).unwrap();
    let cfg = PartitionConfig {
        merge_fanin: 2,
        ..Default::default()
    };
    let (expanded, _) = partition_plan_cfg(&phys, 4, &cfg).unwrap();
    let stacked = expanded.nodes.iter().any(|n| {
        matches!(n.kind, PhysKind::Merge)
            && n.inputs
                .iter()
                .any(|&c| matches!(expanded.node(c).kind, PhysKind::Merge))
    });
    assert!(stacked, "no merge tree:\n{}", expanded.display());
}

/// The batch kernels must be batch-size independent *through shuffle
/// meshes too*: sweep the boundary sizes (single-row batches, the 63/64/65
/// neighborhood around the old minimum, and a size larger than most
/// intermediate results) across repartitioning queries at dop 4.
#[test]
fn shuffle_kernels_are_batch_size_independent() {
    let catalog = catalog();
    for id in ["Q4A", "Q1A", "EX"] {
        let spec = build_query(id, &catalog).unwrap();
        let phys = spec.lower(&catalog, Strategy::Baseline).unwrap();
        let expected = canonical(&execute_oracle(&phys).unwrap());
        for batch in [1usize, 63, 64, 65, 4096] {
            let opts = ExecOptions::validated(batch, 2).unwrap();
            let (out, map) = run_query_dop(
                &spec,
                &catalog,
                Strategy::FeedForward,
                opts,
                &AipConfig::paper(),
                4,
            )
            .unwrap();
            assert!(map.is_some(), "{id} fell back to serial at batch {batch}");
            assert_eq!(
                canonical(&out.rows),
                expected,
                "{id} diverged at batch {batch}"
            );
        }
    }
}

const FACT_ROWS: usize = 3000;
const HOT_FB: i64 = 7;
const FA_KEYS: i64 = 120;
const FB_KEYS: i64 = 90;

/// fact(fa, fb, flag, v): `fa` uniform; rows with `flag = 1` (30%) carry
/// `fb = HOT_FB`, the rest spread `fb` uniformly. Per-column stats see a
/// modest 30% top key on `fb`; the *conditional* concentration (100% of
/// the filtered stream) shows only in the rows that cross a mesh.
fn correlated_catalog() -> Catalog {
    let int = |n: &str| Field::new(n, DataType::Int);
    let mut facts = Vec::with_capacity(FACT_ROWS);
    for i in 0..FACT_ROWS as i64 {
        let flagged = i % 10 < 3;
        facts.push(Row::new(vec![
            Value::Int(i % FA_KEYS + 1),
            Value::Int(if flagged { HOT_FB } else { i % FB_KEYS + 1 }),
            Value::Int(i64::from(flagged)),
            Value::Int(i),
        ]));
    }
    let dim = |name: &str, col: &str, keys: i64| {
        Table::new(
            name,
            Schema::new(vec![Field::new(col, DataType::Int)]),
            vec![],
            vec![],
            (1..=keys).map(|k| Row::new(vec![Value::Int(k)])).collect(),
        )
        .unwrap()
    };
    let mut c = Catalog::new();
    c.add(
        Table::new(
            "fact",
            Schema::new(vec![int("fa"), int("fb"), int("flag"), int("v")]),
            vec![],
            vec![],
            facts,
        )
        .unwrap(),
    );
    c.add(dim("dim1", "da", FA_KEYS));
    c.add(dim("dim2", "db", FB_KEYS));
    c
}

/// σ(flag=1)(fact) ⋈ dim1 on fa, then ⋈ dim2 on fb: two stacked stateful
/// operators on different key classes, so at dop > 1 the second join's
/// stream crosses a shuffle mesh.
fn two_stage_spec(c: &Catalog) -> (sip_plan::LogicalPlan, sip_plan::AttrCatalog) {
    let mut q = QueryBuilder::new(c);
    let f = q.scan("fact", "f", &["fa", "fb", "flag", "v"]).unwrap();
    let pred = f.col("flag").unwrap().eq(Expr::lit(1i64));
    let f = q.filter(f, pred);
    let d1 = q.scan("dim1", "d1", &["da"]).unwrap();
    let j1 = q.join(f, d1, &[("f.fa", "d1.da")]).unwrap();
    let d2 = q.scan("dim2", "d2", &["db"]).unwrap();
    let j2 = q.join(j1, d2, &[("f.fb", "d2.db")]).unwrap();
    (j2.into_plan(), q.into_attrs())
}

fn physical(c: &Catalog) -> (Arc<PhysPlan>, sip_plan::EqClasses) {
    let (plan, attrs) = two_stage_spec(c);
    let eq = PredicateIndex::build(&plan).eq;
    (Arc::new(lower(&plan, attrs, c).unwrap()), eq)
}

/// The correlated-skew plan at dop {1, 2, 4} must produce the serial
/// oracle's multiset.
#[test]
fn correlated_skew_matches_oracle_across_dop() {
    let c = correlated_catalog();
    let (phys, _eq) = physical(&c);
    let expected = canonical(&execute_oracle(&phys).unwrap());
    assert!(!expected.is_empty(), "workload produced no rows");
    for dop in [1u32, 2, 4] {
        let (out, _) = PartitionedExec::new(dop)
            .execute(
                Arc::clone(&phys),
                Arc::new(NoopMonitor),
                ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(canonical(&out.rows), expected, "dop {dop}");
    }
}

/// The same plan under the cost-based controller, whose UPDATEESTIMATES
/// reads live counters while rows flow, must not change the multiset.
#[test]
fn correlated_skew_with_cost_based_controller_matches_oracle() {
    let c = correlated_catalog();
    let (phys, eq) = physical(&c);
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for dop in [1u32, 2, 4] {
        let cb = sip_core::CostBased::new(
            eq.clone(),
            AipConfig::hash_sets(),
            sip_optimizer::CostModel::default(),
        );
        let (out, _) = PartitionedExec::new(dop)
            .execute(
                Arc::clone(&phys),
                cb as Arc<dyn ExecMonitor>,
                ExecOptions::default(),
            )
            .unwrap();
        assert_eq!(canonical(&out.rows), expected, "cost-based dop {dop}");
    }
}
