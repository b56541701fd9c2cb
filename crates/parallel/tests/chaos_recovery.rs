//! Chaos suite for the recovery layer: whole-run retry and the progress
//! watchdog.
//!
//! The recovery contract sharpens the fail-fast invariant: a retryable
//! failure (panic, error, stall) *below* the configured budget must yield
//! a result **byte-identical to the serial oracle** with `recovered: true`
//! and accurate attempt counts; a failure *above* the budget must yield a
//! clean attributed error naming the exhausted `RetryPolicy`. Never a
//! partial `Ok`, never duplicate rows, and every attempt's threads are
//! reaped — checked through each attempt's thread ledger.

use sip_common::retry::{is_exhausted, RetryPolicy};
use sip_common::{ExecFailure, Result};
use sip_core::{run_query_dop, AipConfig, Strategy};
use sip_data::{generate, Catalog, TpchConfig};
use sip_engine::{
    canonical, execute_ctx, execute_oracle, run_with_recovery, ExecContext, ExecOptions, FaultKind,
    FaultPlan, NoopMonitor, PartitionMap, PhysPlan, QueryOutput,
};
use sip_parallel::{partition_plan_cfg, PartitionConfig};
use sip_queries::build_query;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn catalog() -> Catalog {
    generate(&TpchConfig {
        scale_factor: 0.004,
        seed: 0x5EED,
        zipf_z: 0.5,
    })
    .unwrap()
}

/// A retry policy fast enough for tests.
fn test_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::from_micros(200),
        ..RetryPolicy::with_attempts(attempts)
    }
}

/// [`test_retry`] with the progress watchdog armed. The quantum is far
/// above any silent stretch of these small queries, even on a loaded
/// machine, and far below the 4 s heal bound.
fn watched_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        stall_quantum: Some(Duration::from_millis(150)),
        ..test_retry(attempts)
    }
}

/// Run `plan` (partition-parallel when `map` is given) under the
/// whole-run retry loop, then audit every attempt's thread ledger: each
/// attempt joined every thread it spawned, and each of those threads
/// counted itself in and out. The generous per-attempt deadline turns a
/// broken watchdog into a failed test instead of a wedged one.
fn run_recovering(
    plan: &Arc<PhysPlan>,
    map: Option<&Arc<PartitionMap>>,
    opts: ExecOptions,
    what: &str,
) -> Result<QueryOutput> {
    let mut attempts = Vec::new();
    let result = run_with_recovery(opts.with_deadline(Duration::from_secs(30)), |o| {
        let ctx = match map {
            Some(m) => ExecContext::new_partitioned(Arc::clone(plan), o, Arc::clone(m)),
            None => ExecContext::new(Arc::clone(plan), o),
        };
        attempts.push(Arc::clone(&ctx));
        execute_ctx(ctx, Arc::new(NoopMonitor))
    });
    for (i, t) in attempts.iter().map(|ctx| &ctx.threads).enumerate() {
        assert!(t.spawned() > 0, "{what}: attempt {i} spawned nothing");
        assert_eq!(t.live(), 0, "{what}: attempt {i} left threads running");
        assert_eq!(
            t.started(),
            t.spawned(),
            "{what}: attempt {i}: a thread never ran"
        );
    }
    if let (Ok(out), Some(last)) = (&result, attempts.last()) {
        assert_eq!(
            out.metrics.threads_spawned,
            last.threads.spawned(),
            "{what}"
        );
        assert_eq!(out.metrics.threads_live_at_end, 0, "{what}");
    }
    result
}

fn q4a(catalog: &Catalog) -> (Arc<PhysPlan>, Vec<String>) {
    let spec = build_query("Q4A", catalog).unwrap();
    let phys = Arc::new(spec.lower(catalog, Strategy::Baseline).unwrap());
    let expected = canonical(&execute_oracle(&phys).unwrap());
    (phys, expected)
}

/// A bounded fault on a partitioned scan is healed by re-running the
/// whole query: byte-identical rows, and exactly one extra attempt.
#[test]
fn partitioned_scan_faults_heal_by_whole_run_retry() {
    let catalog = catalog();
    let (phys, expected) = q4a(&catalog);
    for dop in [2u32, 4] {
        let (expanded, map) = partition_plan_cfg(&phys, dop, &PartitionConfig::default()).unwrap();
        for fault in [FaultKind::Panic, FaultKind::Error] {
            let opts = ExecOptions::default()
                .with_faults(FaultPlan::none().with_kind_fault_times("Scan", 0, fault.clone(), 1))
                .with_retry(test_retry(3));
            let out = run_recovering(&expanded, Some(&map), opts, &format!("dop {dop} {fault:?}"))
                .unwrap_or_else(|e| panic!("dop {dop} {fault:?}@Scan: must recover, got {e}"));
            assert_eq!(
                canonical(&out.rows),
                expected,
                "dop {dop} {fault:?}@Scan: retried run diverged (duplicate or lost rows)"
            );
            assert!(out.metrics.recovered, "dop {dop} {fault:?}: recovered flag");
            assert_eq!(out.metrics.attempts, 2, "dop {dop} {fault:?}: attempts");
        }
    }
}

/// Above the budget: a clean attributed error naming the exhausted
/// `RetryPolicy` — never a partial `Ok`. An operator error stays an
/// `Error`; an unbounded hang, cut short by the watchdog on every
/// attempt, surfaces as a `Stall`. Both are root causes.
#[test]
fn budget_exhaustion_is_clean_and_attributed() {
    let catalog = catalog();
    let (phys, _) = q4a(&catalog);
    let (expanded, map) = partition_plan_cfg(&phys, 4, &PartitionConfig::default()).unwrap();
    let cases = [
        (
            Some(&map),
            FaultPlan::none().with_kind_fault("Scan", 0, FaultKind::Error),
            ExecFailure::Error,
        ),
        (
            None,
            FaultPlan::none().with_kind_fault("HashJoin", 1, FaultKind::Hang),
            ExecFailure::Stall,
        ),
    ];
    for (map, faults, class) in cases {
        let plan = if map.is_some() { &expanded } else { &phys };
        let opts = ExecOptions::default()
            .with_faults(faults)
            .with_retry(watched_retry(2));
        let err = run_recovering(plan, map, opts, &format!("exhausted {class:?}")).unwrap_err();
        assert_eq!(err.layer(), "exec", "wrong layer: {err}");
        assert_eq!(err.exec_class(), Some(class));
        assert!(err.is_primary(), "symptom won over root cause: {err}");
        assert!(
            is_exhausted(&err),
            "must carry the exhaustion marker: {err}"
        );
        assert!(
            err.to_string()
                .contains("RetryPolicy exhausted after 2/2 attempts"),
            "must name the spent budget: {err}"
        );
    }
}

/// A stalled or hung operator: no batch moves, the watchdog fails the
/// attempt as a `Stall`, and the retry heals it long before the stall
/// would have ended on its own — at a partitioned scan, and at a
/// stateful join (dop 1) whose half-built state no replay of its inputs
/// could reach.
#[test]
fn stalls_and_hangs_heal_by_watchdog_retry() {
    let catalog = catalog();
    let (phys, expected) = q4a(&catalog);
    let (expanded, map) = partition_plan_cfg(&phys, 4, &PartitionConfig::default()).unwrap();
    let cases = [
        (
            Some(&map),
            "Scan",
            0,
            FaultKind::Stall(Duration::from_secs(5)),
        ),
        (Some(&map), "Scan", 0, FaultKind::Hang),
        (None, "HashJoin", 1, FaultKind::Hang),
    ];
    for (map, kind, after, stall) in cases {
        let what = format!("{stall:?}@{kind}");
        let plan = if map.is_some() { &expanded } else { &phys };
        let opts = ExecOptions::default()
            .with_faults(FaultPlan::none().with_kind_fault_times(kind, after, stall, 1))
            .with_retry(watched_retry(2));
        let start = Instant::now();
        let result = run_recovering(plan, map, opts, &what);
        let elapsed = start.elapsed();
        let out =
            result.unwrap_or_else(|e| panic!("{what}: the watchdog must rescue the run, got {e}"));
        assert_eq!(
            canonical(&out.rows),
            expected,
            "{what}: retried run double-counted or lost rows"
        );
        assert!(out.metrics.recovered, "{what}: recovered flag");
        assert_eq!(
            out.metrics.attempts, 2,
            "{what}: one stalled attempt, one clean"
        );
        assert!(
            elapsed < Duration::from_secs(4),
            "{what}: the retry must win long before the stall ends, took {elapsed:?}"
        );
    }
}

/// The full-path sweep: bounded faults at every present kind × dop
/// {1, 2, 4}, all healed below budget into byte-identical results with
/// accurate attempt counts.
#[test]
fn bounded_faults_across_dop_heal_byte_identically() {
    let catalog = catalog();
    let spec = build_query("EX", &catalog).unwrap();
    let phys = spec.lower(&catalog, Strategy::Baseline).unwrap();
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for dop in [1u32, 2, 4] {
        for (kind_name, fault) in [
            ("Scan", FaultKind::Panic),
            ("HashJoin", FaultKind::Error),
            ("Aggregate", FaultKind::Panic),
        ] {
            let opts = ExecOptions::default()
                .with_faults(FaultPlan::none().with_kind_fault_times(kind_name, 1, fault, 1))
                .with_retry(test_retry(3));
            let (out, _) = run_query_dop(
                &spec,
                &catalog,
                Strategy::FeedForward,
                opts,
                &AipConfig::paper(),
                dop,
            )
            .unwrap_or_else(|e| panic!("EX dop {dop} {kind_name}: must heal, got {e}"));
            assert_eq!(
                canonical(&out.rows),
                expected,
                "EX dop {dop} {kind_name}: recovered run diverged"
            );
            assert!(out.metrics.recovered, "EX dop {dop} {kind_name}: flag");
        }
    }
}
