//! Robustness and failure-injection tests for the push engine: runtime
//! expression errors must propagate (not hang), AIP filters must be
//! droppable mid-query without correctness loss (the §V memory-pressure
//! valve), and the pipelined semijoin must agree with the oracle under
//! adversarial schedules.

use sip_common::{hash_key, DataType, Field, Row, Schema, Value};
use sip_data::{Catalog, Table};
use sip_engine::{
    canonical, execute, execute_baseline, execute_oracle, lower, ExecContext, ExecMonitor,
    ExecOptions, InjectedFilter, MergePolicy, PhysKind,
};
use sip_expr::{AggFunc, Expr};
use sip_filter::{AipSet, BucketedKeySet};
use sip_plan::QueryBuilder;
use std::sync::Arc;

fn small_catalog(n: i64) -> Catalog {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Int),
        Field::new("v", DataType::Int),
    ]);
    let rows: Vec<Row> = (0..n)
        .map(|i| Row::new(vec![Value::Int(i % 17), Value::Int(i)]))
        .collect();
    let mut c = Catalog::new();
    c.add(Table::new("t", schema.clone(), vec![], vec![], rows.clone()).unwrap());
    c.add(Table::new("u", schema, vec![], vec![], rows).unwrap());
    c
}

#[test]
fn division_by_zero_propagates_as_error() {
    let c = small_catalog(100);
    let mut q = QueryBuilder::new(&c);
    let t = q.scan("t", "t", &["k", "v"]).unwrap();
    // v / (v - v) divides by zero on every row.
    let bad = t
        .col("v")
        .unwrap()
        .div(t.col("v").unwrap().sub(t.col("v").unwrap()));
    let proj = q.project(t, &[(bad, "boom", DataType::Int)]).unwrap();
    let plan = lower(proj.plan(), q.attrs().clone(), &c).unwrap();
    let err = execute_baseline(Arc::new(plan), ExecOptions::default());
    assert!(err.is_err(), "expected propagation, got {err:?}");
    assert_eq!(err.unwrap_err().layer(), "expr");
}

#[test]
fn filters_cleared_mid_query_never_change_results() {
    // Inject a filter that passes everything, then clear taps mid-flight:
    // dropping AIP filters is always safe (performance, not correctness).
    struct ClearingMonitor;
    impl ExecMonitor for ClearingMonitor {
        fn on_query_start(&self, ctx: &Arc<ExecContext>) {
            // Install a pass-through-ish exact filter at every scan.
            let mut keys = BucketedKeySet::new();
            for i in 0..17i64 {
                let k = vec![Value::Int(i)];
                keys.insert(hash_key(&k), k);
            }
            let set = Arc::new(AipSet::Hash(keys));
            for node in &ctx.plan.nodes {
                if matches!(node.kind, PhysKind::Scan { .. }) {
                    ctx.inject_filter(
                        node.id,
                        InjectedFilter::new("all-pass", vec![0], Arc::clone(&set)),
                        MergePolicy::Stack,
                    );
                }
            }
        }
        fn on_input_complete(&self, ctx: &Arc<ExecContext>, _ev: &sip_engine::CompletionEvent<'_>) {
            // Memory pressure: drop every filter.
            for tap in &ctx.taps {
                tap.clear();
            }
        }
    }

    let c = small_catalog(500);
    let mut q = QueryBuilder::new(&c);
    let t = q.scan("t", "t", &["k", "v"]).unwrap();
    let u = q.scan("u", "u", &["k", "v"]).unwrap();
    let j = q.join(t, u, &[("t.k", "u.k")]).unwrap();
    let total = {
        let v = j.col("t.v").unwrap();
        q.aggregate(j, &["t.k"], &[(AggFunc::Sum, v, "s")]).unwrap()
    };
    let plan = Arc::new(lower(total.plan(), q.attrs().clone(), &c).unwrap());
    let expected = canonical(&execute_oracle(&plan).unwrap());
    let out = execute(plan, Arc::new(ClearingMonitor), ExecOptions::default()).unwrap();
    assert_eq!(canonical(&out.rows), expected);
}

#[test]
fn hostile_filter_on_join_key_prunes_consistently() {
    // A filter admitting only even keys at one scan must behave exactly
    // like a predicate `k % 2 = 0` on that input.
    struct EvenFilter;
    impl ExecMonitor for EvenFilter {
        fn on_query_start(&self, ctx: &Arc<ExecContext>) {
            let mut keys = BucketedKeySet::new();
            for i in (0..17i64).step_by(2) {
                let k = vec![Value::Int(i)];
                keys.insert(hash_key(&k), k);
            }
            let set = Arc::new(AipSet::Hash(keys));
            let scan = ctx
                .plan
                .nodes
                .iter()
                .find(|n| matches!(&n.kind, PhysKind::Scan { binding, .. } if binding == "t"))
                .unwrap()
                .id;
            ctx.inject_filter(
                scan,
                InjectedFilter::new("even-only", vec![0], set),
                MergePolicy::Stack,
            );
        }
    }

    let c = small_catalog(300);
    let build = |with_pred: bool| {
        let mut q = QueryBuilder::new(&c);
        let t = q.scan("t", "t", &["k", "v"]).unwrap();
        let t = if with_pred {
            // (k/2)*2 = k  ⇔  k is even
            let pred = t
                .col("k")
                .unwrap()
                .div(Expr::lit(2i64))
                .mul(Expr::lit(2i64))
                .eq(t.col("k").unwrap());
            q.filter(t, pred)
        } else {
            t
        };
        let u = q.scan("u", "u", &["k", "v"]).unwrap();
        let j = q.join(t, u, &[("t.k", "u.k")]).unwrap();
        Arc::new(lower(j.plan(), q.attrs().clone(), &c).unwrap())
    };
    let expected = canonical(&execute_oracle(&build(true)).unwrap());
    let out = execute(build(false), Arc::new(EvenFilter), ExecOptions::default()).unwrap();
    assert_eq!(canonical(&out.rows), expected);
}

#[test]
fn semijoin_matches_oracle_under_tiny_channels() {
    let c = small_catalog(400);
    let mut q = QueryBuilder::new(&c);
    let t = q.scan("t", "t", &["k", "v"]).unwrap();
    let u = q.scan("u", "u", &["k", "v"]).unwrap();
    let pred = u.col("v").unwrap().lt(Expr::lit(40i64));
    let u = q.filter(u, pred);
    let keys = vec![(t.attr("k").unwrap(), u.attr("k").unwrap())];
    let plan = sip_plan::LogicalPlan::SemiJoin {
        probe: Box::new(t.into_plan()),
        build: Box::new(u.into_plan()),
        keys,
    };
    plan.validate().unwrap();
    let phys = Arc::new(lower(&plan, q.into_attrs(), &c).unwrap());
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for batch in [1usize, 3, 1024] {
        let opts = ExecOptions {
            batch_size: batch,
            channel_capacity: 1,
            ..Default::default()
        };
        let out = execute_baseline(Arc::clone(&phys), opts).unwrap();
        assert_eq!(canonical(&out.rows), expected, "batch={batch}");
    }
}

#[test]
fn state_returns_to_zero_after_query() {
    let c = small_catalog(1000);
    let mut q = QueryBuilder::new(&c);
    let t = q.scan("t", "t", &["k", "v"]).unwrap();
    let u = q.scan("u", "u", &["k", "v"]).unwrap();
    let j = q.join(t, u, &[("t.k", "u.k")]).unwrap();
    let agg = {
        let v = j.col("t.v").unwrap();
        q.aggregate(j, &["t.k"], &[(AggFunc::Sum, v, "s")]).unwrap()
    };
    let plan = Arc::new(lower(agg.plan(), q.attrs().clone(), &c).unwrap());
    let out = execute_baseline(plan, ExecOptions::default()).unwrap();
    assert!(out.metrics.peak_state_bytes > 0);
    // Every operator released what it buffered.
    assert_eq!(out.metrics.final_state_bytes, 0);
}
