//! Property tests for the recovery layer: randomized fault points ×
//! dop {1, 2, 4} × retry budgets, asserting the recovery
//! contract — a bounded retryable fault strictly below the budget heals
//! into a result with **no duplicate and no missing rows** (byte-equal
//! to the serial oracle), and every attempt's threads are reaped.
//!
//! The fault target is drawn over *all* operators of the executed plan,
//! so runs exercise whole-run retry from sources, shuffle meshes and
//! stateful operators alike, plus the no-op case where the drawn operator
//! never checks its guard — the contract holds in all of them.

use proptest::prelude::*;
use sip_common::retry::RetryPolicy;
use sip_common::{DataType, Field, Row, Schema, Value};
use sip_data::{Catalog, Table};
use sip_engine::{
    canonical, execute_ctx, execute_oracle, lower, run_with_recovery, ExecContext, ExecOptions,
    FaultKind, FaultPlan, NoopMonitor, PhysPlan,
};
use sip_expr::AggFunc;
use sip_parallel::partition_plan;
use sip_plan::QueryBuilder;
use std::sync::Arc;
use std::time::Duration;

/// Abort the whole process if a case wedges — but unlike the shuffle
/// suite's fire-and-forget watchdog, this one is *joined* on success so
/// no case leaves a thread behind.
fn with_watchdog<T>(f: impl FnOnce() -> T) -> T {
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let h = std::thread::spawn(move || {
        if rx.recv_timeout(Duration::from_secs(300)).is_err() {
            eprintln!("prop_recovery: execution wedged (recovery deadlock?) — aborting");
            std::process::abort();
        }
    });
    let out = f();
    let _ = tx.send(());
    let _ = h.join();
    out
}

fn mini_catalog(facts: &[(i64, i64, i64)], bs: &[(i64, i64)], cs: &[i64]) -> Catalog {
    let mut c = Catalog::new();
    let int = |n: &str| Field::new(n, DataType::Int);
    c.add(
        Table::new(
            "fact",
            Schema::new(vec![int("f1"), int("f2"), int("v")]),
            vec![],
            vec![],
            facts
                .iter()
                .map(|&(a, b, v)| Row::new(vec![Value::Int(a), Value::Int(b), Value::Int(v)]))
                .collect(),
        )
        .unwrap(),
    );
    c.add(
        Table::new(
            "dimb",
            Schema::new(vec![int("b1"), int("b2")]),
            vec![],
            vec![],
            bs.iter()
                .map(|&(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)]))
                .collect(),
        )
        .unwrap(),
    );
    c.add(
        Table::new(
            "dimc",
            Schema::new(vec![int("c1")]),
            vec![],
            vec![],
            cs.iter().map(|&a| Row::new(vec![Value::Int(a)])).collect(),
        )
        .unwrap(),
    );
    c
}

/// fact ⋈ dimb ⋈ dimc with drawn key columns, optionally topped by a
/// grouped SUM — same shape family as the shuffle property suite, so
/// co-located joins, one-sided shuffles, and double shuffles all occur
/// under the fault injector.
fn mini_plan(c: &Catalog, fk: usize, bk: usize, gk: usize, agg: bool) -> PhysPlan {
    let mut q = QueryBuilder::new(c);
    let f = q.scan("fact", "f", &["f1", "f2", "v"]).unwrap();
    let b = q.scan("dimb", "b", &["b1", "b2"]).unwrap();
    let fk_name = ["f.f1", "f.f2"][fk];
    let bk_name = ["b.b1", "b.b2"][bk];
    let j1 = q.join(f, b, &[(fk_name, bk_name)]).unwrap();
    let gk_name = ["f.f1", "f.f2", "b.b1", "b.b2"][gk];
    let cc = q.scan("dimc", "c", &["c1"]).unwrap();
    let j2 = q.join(j1, cc, &[(gk_name, "c.c1")]).unwrap();
    let plan = if agg {
        let v = j2.col("v").unwrap();
        q.aggregate(j2, &[gk_name], &[(AggFunc::Sum, v, "total")])
            .unwrap()
            .into_plan()
    } else {
        j2.into_plan()
    };
    lower(&plan, q.into_attrs(), c).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The core recovery invariant, randomized: for any plan shape, any
    /// fault point, and any bounded fault strictly below the retry
    /// budget, the run succeeds with rows byte-equal to the oracle — no
    /// row lost or duplicated across however many attempts it took — and
    /// no attempt leaks a thread.
    #[test]
    fn bounded_faults_below_budget_never_duplicate_or_lose_rows(
        facts in prop::collection::vec((0i64..10, 0i64..10, -20i64..20), 1..120),
        bs in prop::collection::vec((0i64..10, 0i64..10), 1..40),
        cs in prop::collection::vec(0i64..10, 1..16),
        fk in 0usize..2,
        bk in 0usize..2,
        gk in 0usize..4,
        aggflag in 0usize..2,
        dop_ix in 0usize..3,
        op_seed in 0u32..1024,
        kind_ix in 0usize..2,
        times in 1u32..3,
        headroom in 1u32..3,
    ) {
        let dop = [1u32, 2, 4][dop_ix];
        let kind = [FaultKind::Panic, FaultKind::Error][kind_ix].clone();
        // Strictly below budget: `times` firings can cost at most `times`
        // failed attempts, so `times + headroom` attempts must heal.
        let budget = times + headroom;
        let retry = RetryPolicy {
            base_backoff: Duration::from_micros(200),
            ..RetryPolicy::with_attempts(budget)
        };
        with_watchdog(|| {
            let catalog = mini_catalog(&facts, &bs, &cs);
            let phys = Arc::new(mini_plan(&catalog, fk, bk, gk, aggflag == 1));
            let expected = canonical(&execute_oracle(&phys).unwrap());
            let mut attempts: Vec<Arc<ExecContext>> = Vec::new();
            let result = if dop == 1 {
                let n = phys.nodes.len() as u32;
                let opts = ExecOptions::default()
                    .with_faults(FaultPlan::none().with_op_fault_times(op_seed % n, 0, kind, times))
                    .with_retry(retry);
                run_with_recovery(opts, |o| {
                    let ctx = ExecContext::new(Arc::clone(&phys), o);
                    attempts.push(Arc::clone(&ctx));
                    execute_ctx(ctx, Arc::new(NoopMonitor))
                })
            } else {
                let (expanded, map) = match partition_plan(&phys, dop) {
                    Ok(x) => x,
                    // Degenerate shapes fall back to serial — nothing to
                    // fault here that the dop==1 arm doesn't cover.
                    Err(_) => return,
                };
                let n = expanded.nodes.len() as u32;
                let opts = ExecOptions::default()
                    .with_faults(FaultPlan::none().with_op_fault_times(op_seed % n, 0, kind, times))
                    .with_retry(retry);
                run_with_recovery(opts, |o| {
                    let ctx =
                        ExecContext::new_partitioned(Arc::clone(&expanded), o, Arc::clone(&map));
                    attempts.push(Arc::clone(&ctx));
                    execute_ctx(ctx, Arc::new(NoopMonitor))
                })
            };
            let out = result.unwrap_or_else(|e| {
                panic!(
                    "dop {dop} times={times}/budget {budget}: \
                     must heal below budget, got {e}"
                )
            });
            prop_assert_eq!(
                canonical(&out.rows),
                expected,
                "dop {} times={}/budget {}: duplicate or missing rows after recovery",
                dop, times, budget
            );
            for ctx in &attempts {
                prop_assert_eq!(
                    ctx.threads.live(), 0,
                    "recovery leaked threads (dop {})", dop
                );
                prop_assert_eq!(
                    ctx.threads.started(), ctx.threads.spawned(),
                    "spawned threads never ran (dop {})", dop
                );
            }
        });
    }
}
