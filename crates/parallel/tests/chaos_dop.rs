//! Chaos differential sweep for the parallel executor: injected faults ×
//! dop {1, 2, 4}, through the full query path and through a plan with a
//! shuffle mesh.
//!
//! The invariant under every combination: a run returns either a result
//! **byte-identical to the serial oracle** or a **clean attributed
//! execution error** carrying the injected failure class — never a
//! partial `Ok`. A fault targeting an operator kind absent from the
//! executed plan must be a perfect no-op (the run still matches the
//! oracle), and a fault targeting a kind that is present must actually
//! fire at every dop.

use sip_common::{ExecFailure, SipError};
use sip_core::{run_query_dop, AipConfig, Strategy};
use sip_data::{generate, TpchConfig};
use sip_engine::{
    canonical, execute_ctx, execute_oracle, ExecContext, ExecOptions, FaultKind, FaultPlan,
    NoopMonitor, PhysKind,
};
use sip_parallel::partition_plan;
use sip_queries::build_query;
use std::sync::Arc;

fn catalog() -> sip_data::Catalog {
    generate(&TpchConfig {
        scale_factor: 0.004,
        seed: 0x5EED,
        zipf_z: 0.5,
    })
    .unwrap()
}

/// One fault scenario of the sweep: a plan-wide kind-targeted fault (or
/// none) and whether it must fire on the plans this suite runs.
struct Scenario {
    label: &'static str,
    faults: FaultPlan,
    /// `Some(class)` = the targeted kind is present in every executed
    /// plan, so the run must fail with exactly this class.
    must_fail: Option<ExecFailure>,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            label: "fault-free",
            faults: FaultPlan::none(),
            must_fail: None,
        },
        Scenario {
            label: "panic@HashJoin",
            faults: FaultPlan::none().with_kind_fault("HashJoin", 1, FaultKind::Panic),
            must_fail: Some(ExecFailure::Panic),
        },
        Scenario {
            label: "error@Scan",
            faults: FaultPlan::none().with_kind_fault("Scan", 1, FaultKind::Error),
            must_fail: Some(ExecFailure::Error),
        },
        Scenario {
            label: "panic@SemiJoin (absent kind: no-op)",
            faults: FaultPlan::none().with_kind_fault("SemiJoin", 0, FaultKind::Panic),
            must_fail: None,
        },
    ]
}

/// The chaos invariant: byte-identical to the oracle, or a clean
/// attributed execution error of the injected class — never partial Ok.
fn check_outcome(
    label: &str,
    expected: &[String],
    result: Result<Vec<sip_common::Row>, SipError>,
    must_fail: Option<ExecFailure>,
) {
    match result {
        Ok(rows) => {
            assert!(
                must_fail.is_none(),
                "{label}: fault on a present kind must fail, got Ok with {} rows",
                rows.len()
            );
            assert_eq!(canonical(&rows), expected, "{label}: partial or wrong Ok");
        }
        Err(e) => {
            assert_eq!(e.layer(), "exec", "{label}: unexpected layer for {e}");
            let class = e
                .exec_class()
                .unwrap_or_else(|| panic!("{label}: execution error without a failure class: {e}"));
            match must_fail {
                Some(expected_class) => assert_eq!(
                    class, expected_class,
                    "{label}: wrong root cause surfaced: {e}"
                ),
                // A fault-free (or no-op-fault) run may never fail.
                None => panic!("{label}: spurious failure: {e}"),
            }
            assert!(e.is_primary(), "{label}: symptom won over root cause: {e}");
        }
    }
}

/// Full query path (`run_query_dop`, plain hash routing) under the
/// scenario sweep at dop {1, 2, 4}.
#[test]
fn faults_across_dop_never_yield_partial_ok() {
    let catalog = catalog();
    let spec = build_query("EX", &catalog).unwrap();
    let phys = spec.lower(&catalog, Strategy::Baseline).unwrap();
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for dop in [1u32, 2, 4] {
        for s in scenarios() {
            let opts = ExecOptions::default().with_faults(s.faults.clone());
            let result = run_query_dop(
                &spec,
                &catalog,
                Strategy::FeedForward,
                opts,
                &AipConfig::paper(),
                dop,
            )
            .map(|(out, _)| out.rows);
            check_outcome(
                &format!("EX dop {dop} {}", s.label),
                &expected,
                result,
                s.must_fail,
            );
        }
    }
}

/// The scenario sweep through a plan with shuffle meshes (Q4A's
/// multi-class join chain), plus a mesh-specific fault (`ShuffleWrite`)
/// that must fire whenever the expanded plan contains a mesh.
#[test]
fn faults_through_shuffle_meshes_never_yield_partial_ok() {
    let catalog = catalog();
    let spec = build_query("Q4A", &catalog).unwrap();
    let phys = Arc::new(spec.lower(&catalog, Strategy::Baseline).unwrap());
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for dop in [2u32, 4] {
        let (expanded, map) = partition_plan(&phys, dop).unwrap();
        let has_mesh = expanded
            .nodes
            .iter()
            .any(|n| matches!(n.kind, PhysKind::ShuffleWrite { .. }));
        assert!(has_mesh, "Q4A dop {dop}: expanded without a shuffle mesh");
        let mut sweep = scenarios();
        sweep.push(Scenario {
            label: "error@ShuffleWrite",
            faults: FaultPlan::none().with_kind_fault("ShuffleWrite", 1, FaultKind::Error),
            must_fail: Some(ExecFailure::Error),
        });
        for s in sweep {
            let opts = ExecOptions::default().with_faults(s.faults.clone());
            let ctx = ExecContext::new_partitioned(Arc::clone(&expanded), opts, Arc::clone(&map));
            let result = execute_ctx(ctx, Arc::new(NoopMonitor)).map(|out| out.rows);
            check_outcome(
                &format!("Q4A dop {dop} {}", s.label),
                &expected,
                result,
                s.must_fail,
            );
        }
    }
}
