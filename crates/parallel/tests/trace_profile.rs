//! sip-trace integration across the partition-parallel executor: the
//! span/phase accounting invariants must hold on every shape the planner
//! can produce — serial, hash-partitioned, and shuffled — and tracing off
//! must keep the routing histograms (the metrics path) while attributing
//! zero time.
//!
//! Invariants checked per dop:
//!
//! * results still match the serial oracle (tracing must be inert);
//! * per-operator attributed time never exceeds wall time (one thread per
//!   operator, so its busy time is bounded by the query's wall clock);
//! * one `Compute` span per input batch on every batch-loop operator:
//!   `phase_counts[Compute] == batches_in` for filters, projections,
//!   joins, aggregates, exchanges, and shuffle writers;
//! * span streams are merged deterministically (sorted by start time);
//! * [`sip_engine::QueryProfile`] built from the run is structurally
//!   consistent (one op row per plan node, one partition row per worker).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_common::trace::Phase;
use sip_common::{DataType, Field, Row, Schema, Value};
use sip_data::{Catalog, Table, Zipf};
use sip_engine::{
    canonical, execute_baseline, execute_ctx, execute_oracle, lower, ExecContext, ExecOptions,
    NoopMonitor, PhysKind, PhysPlan, QueryOutput, QueryProfile, TraceLevel,
};
use sip_parallel::partition_plan;
use sip_plan::QueryBuilder;
use std::sync::Arc;

const KEYS: u64 = 40;
const FACT_ROWS: usize = 4000;

/// fact(fa, fb, v) with Zipf(1.5)-skewed keys and dimensions t2(ga),
/// t3(hb) covering the domain — the `skew_shuffle` workload, minus the
/// rare-key tail it needs for scoping checks.
fn skewed_catalog() -> Catalog {
    let zipf = Zipf::new(KEYS, 1.5);
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let int = |n: &str| Field::new(n, DataType::Int);
    let facts = (0..FACT_ROWS)
        .map(|i| {
            Row::new(vec![
                Value::Int(zipf.sample(&mut rng) as i64),
                Value::Int(zipf.sample(&mut rng) as i64),
                Value::Int(i as i64),
            ])
        })
        .collect();
    let dim = |name: &str, col: &str| {
        Table::new(
            name,
            Schema::new(vec![Field::new(col, DataType::Int)]),
            vec![],
            vec![],
            (1..=KEYS as i64)
                .map(|k| Row::new(vec![Value::Int(k)]))
                .collect(),
        )
        .unwrap()
    };
    let mut c = Catalog::new();
    c.add(
        Table::new(
            "fact",
            Schema::new(vec![int("fa"), int("fb"), int("v")]),
            vec![],
            vec![],
            facts,
        )
        .unwrap(),
    );
    c.add(dim("t2", "ga"));
    c.add(dim("t3", "hb"));
    c
}

/// (fact ⋈ t2 on fa) ⋈ t3 on fb — the second join is off-class, so the
/// Zipf-heavy joined stream must cross a shuffle mesh.
fn two_class_plan(c: &Catalog) -> PhysPlan {
    let mut q = QueryBuilder::new(c);
    let f = q.scan("fact", "f", &["fa", "fb", "v"]).unwrap();
    let g = q.scan("t2", "g", &["ga"]).unwrap();
    let j1 = q.join(f, g, &[("f.fa", "g.ga")]).unwrap();
    let h = q.scan("t3", "h", &["hb"]).unwrap();
    let j2 = q.join(j1, h, &[("f.fb", "h.hb")]).unwrap();
    lower(&j2.into_plan(), q.into_attrs(), c).unwrap()
}

/// Run one cell, returning the executed plan (expanded for dop > 1) and
/// the output.
fn run_cell(phys: &PhysPlan, dop: u32, level: TraceLevel) -> (Arc<PhysPlan>, QueryOutput) {
    let opts = ExecOptions::default().with_trace(level);
    if dop <= 1 {
        let plan = Arc::new(phys.clone());
        let out = execute_baseline(Arc::clone(&plan), opts).unwrap();
        return (plan, out);
    }
    let (expanded, map) = partition_plan(phys, dop).unwrap();
    let ctx = ExecContext::new_partitioned(Arc::clone(&expanded), opts, map);
    let out = execute_ctx(ctx, Arc::new(NoopMonitor)).unwrap();
    (expanded, out)
}

/// Does the batch-loop invariant (`Compute` count == batches in) apply to
/// this operator kind? Scans produce rather than consume batches, and
/// reads and merges only pull.
fn batch_loop_op(kind: &PhysKind) -> bool {
    matches!(
        kind,
        PhysKind::Filter { .. }
            | PhysKind::Project { .. }
            | PhysKind::HashJoin { .. }
            | PhysKind::SemiJoin { .. }
            | PhysKind::Aggregate { .. }
            | PhysKind::Distinct
            | PhysKind::Exchange { .. }
            | PhysKind::ShuffleWrite { .. }
    )
}

#[test]
fn phase_accounting_holds_across_dop() {
    let c = skewed_catalog();
    let phys = two_class_plan(&c);
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for dop in [1u32, 2, 4] {
        let (plan, out) = run_cell(&phys, dop, TraceLevel::Spans);
        let tag = format!("dop {dop}");
        assert_eq!(
            canonical(&out.rows),
            expected,
            "{tag}: tracing changed results"
        );
        let wall = out.metrics.wall_time.as_nanos() as u64;
        assert_eq!(out.metrics.per_op.len(), plan.nodes.len(), "{tag}");
        // Phase attribution must never clamp: nested emitter time is
        // always a subset of its enclosing Compute span, even on
        // mesh writers that emit one batch to several readers.
        assert_eq!(
            out.metrics.attribution_underflow, 0,
            "{tag}: attribution clamped"
        );
        for node in &plan.nodes {
            let snap = &out.metrics.per_op[node.id.index()];
            assert!(
                snap.busy_nanos() <= wall,
                "{tag} {}: attributed {}ns exceeds wall {wall}ns",
                node.id,
                snap.busy_nanos()
            );
            if batch_loop_op(&node.kind) {
                assert_eq!(
                    snap.phase_counts[Phase::Compute as usize],
                    snap.batches_in,
                    "{tag} {} ({}): one Compute span per input batch",
                    node.id,
                    node.kind.name()
                );
            }
        }
        // Span streams merge deterministically: sorted by start time.
        assert!(
            !out.metrics.spans.is_empty(),
            "{tag}: no spans at Spans level"
        );
        assert!(
            out.metrics
                .spans
                .windows(2)
                .all(|w| w[0].t_start <= w[1].t_start),
            "{tag}: span merge is not start-time sorted"
        );
        for s in &out.metrics.spans {
            assert!(s.t_end >= s.t_start, "{tag}: inverted span");
        }
    }
}

#[test]
fn query_profile_is_structurally_consistent_when_partitioned() {
    let c = skewed_catalog();
    let phys = two_class_plan(&c);
    let dop = 4u32;
    let opts = ExecOptions::default().with_trace(TraceLevel::Ops);
    let (expanded, map) = partition_plan(&phys, dop).unwrap();
    let ctx = ExecContext::new_partitioned(Arc::clone(&expanded), opts, Arc::clone(&map));
    let out = execute_ctx(ctx, Arc::new(NoopMonitor)).unwrap();

    let profile = QueryProfile::from_run(&expanded, &out.metrics, Some(&map));
    assert_eq!(profile.ops.len(), expanded.nodes.len());
    assert_eq!(profile.partitions.len(), dop as usize);
    assert_eq!(profile.dop, dop);
    // The per-partition rollup conserves the attributed time: worker busy
    // totals sum to the busy time of the partition-owned operators.
    let owned_busy: u64 = profile
        .ops
        .iter()
        .filter(|o| o.partition.is_some())
        .map(|o| o.busy_nanos())
        .sum();
    let worker_busy: u64 = profile.partitions.iter().map(|p| p.busy_nanos()).sum();
    assert_eq!(owned_busy, worker_busy);
    // One renderer for the per-worker lines, shared with the bench layer.
    let lines = sip_engine::profile::worker_lines(&out.metrics, &map);
    assert_eq!(lines.len(), dop as usize);
    assert!(lines.iter().all(|l| l.starts_with("worker ")), "{lines:?}");
    // The JSON artifact carries the schema tag and the partition rows.
    let json = profile.to_json();
    assert!(json.contains(sip_engine::PROFILE_SCHEMA));
    assert!(json.contains("\"partitions\": ["));
    // The attribution-underflow counter is surfaced (and clean) in the
    // artifact, so a clamped merge can never pass silently.
    assert_eq!(profile.attribution_underflow, 0);
    assert!(json.contains("\"attribution_underflow\": 0"));
}

#[test]
fn tracing_off_keeps_routing_and_attributes_no_time() {
    let c = skewed_catalog();
    let phys = two_class_plan(&c);
    let (plan, out) = run_cell(&phys, 4, TraceLevel::Off);
    assert!(out.metrics.spans.is_empty());
    let mut writers = 0usize;
    for node in &plan.nodes {
        let snap = &out.metrics.per_op[node.id.index()];
        assert_eq!(snap.busy_nanos(), 0, "{}: time attributed at Off", node.id);
        if matches!(node.kind, PhysKind::ShuffleWrite { .. }) {
            writers += 1;
            // Satellite of the trace refactor: routing histograms are
            // metrics, not trace — they must survive TraceLevel::Off.
            assert_eq!(snap.routed.len(), 4, "{}: routing lost at Off", node.id);
            assert!(snap.routed.iter().sum::<u64>() > 0, "{}", node.id);
        }
    }
    assert!(
        writers > 0,
        "plan has no shuffle writers:\n{}",
        plan.display()
    );
}

#[test]
fn trace_probe_monitor_receives_the_frozen_metrics() {
    let c = skewed_catalog();
    let phys = two_class_plan(&c);
    let (expanded, map) = partition_plan(&phys, 2).unwrap();
    let probe = Arc::new(sip_engine::testkit::TraceProbe::default());
    let opts = ExecOptions::default().with_trace(TraceLevel::Spans);
    let ctx = ExecContext::new_partitioned(Arc::clone(&expanded), opts, map);
    let out = execute_ctx(ctx, Arc::clone(&probe) as Arc<dyn sip_engine::ExecMonitor>).unwrap();
    let captured = probe.captured.lock().unwrap();
    assert_eq!(
        captured.len(),
        1,
        "on_trace must fire exactly once per query"
    );
    // The sink sees the same frozen snapshot the caller gets.
    assert_eq!(captured[0].rows_out, out.metrics.rows_out);
    assert_eq!(captured[0].spans.len(), out.metrics.spans.len());
}
