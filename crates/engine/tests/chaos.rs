//! Chaos suite for the fail-fast query lifecycle: injected faults
//! (panic / error / stall) at every operator kind, deadlines, external
//! cancellation, and clean teardown.
//!
//! The one invariant every case asserts: a run either returns a result
//! **byte-identical to the serial oracle** or a **clean attributed
//! error** — never a partial `Ok`. The first test demonstrates the bug
//! class this PR removes: a consumer that conflates channel disconnect
//! with `Msg::Eof` silently truncates the stream when its producer
//! panics; the engine now classifies that disconnect as a hard error
//! with the failing operator's identity attached.

use crossbeam::channel::bounded;
use sip_common::retry::{is_exhausted, RetryPolicy};
use sip_common::{ExecFailure, Row, Value};
use sip_data::{Catalog, Table};
use sip_engine::testkit::TraceProbe;
use sip_engine::{
    canonical, execute, execute_baseline, execute_ctx, execute_oracle, execute_with_recovery,
    lower, run_with_recovery, ExecContext, ExecMonitor, ExecOptions, FaultKind, FaultPlan, Msg,
    NoopMonitor, QueryOutput, QueryProfile, TraceLevel,
};
use sip_expr::AggFunc;
use sip_plan::QueryBuilder;
use std::sync::Arc;
use std::time::Duration;

fn small_catalog(n: i64) -> Catalog {
    use sip_common::{DataType, Field, Schema};
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

/// Join + aggregate over both tables: covers Scan, HashJoin, and
/// Aggregate operator threads in one plan.
fn join_agg_plan(c: &Catalog) -> Arc<sip_engine::PhysPlan> {
    let mut q = QueryBuilder::new(c);
    let t = q.scan("t", "t", &["k", "v"]).unwrap();
    let u = q.scan("u", "u", &["k", "v"]).unwrap();
    let j = q.join(t, u, &[("t.k", "u.k")]).unwrap();
    let agg = {
        let v = j.col("t.v").unwrap();
        q.aggregate(j, &["t.k"], &[(AggFunc::Sum, v, "s")]).unwrap()
    };
    Arc::new(lower(agg.plan(), q.attrs().clone(), c).unwrap())
}

/// Small batches so every operator sees several of them and an
/// `after_batches: 1` fault always fires mid-stream.
fn small_batches() -> ExecOptions {
    ExecOptions {
        batch_size: 64,
        channel_capacity: 2,
        ..Default::default()
    }
}

/// The pre-fix bug class, reproduced outside the engine: a consumer
/// using the old `Ok(Msg::Eof) | Err(_) => break` conflation treats its
/// producer's panic (channel drop without Eof) as end-of-stream and
/// returns a silently truncated result. The engine half of the story —
/// the same fault shape now failing loudly — is the next test.
#[test]
fn disconnect_conflated_with_eof_yields_partial_ok() {
    let (tx, rx) = bounded::<Msg>(4);
    let producer = std::thread::spawn(move || {
        for chunk in 0..2i64 {
            let rows: Vec<Row> = (0..10)
                .map(|i| Row::new(vec![Value::Int(chunk * 10 + i)]))
                .collect();
            tx.send(Msg::Batch(sip_common::Batch::new(rows))).unwrap();
        }
        // Producer dies before sending its remaining batches: the channel
        // drops with no Msg::Eof. (A real operator panic does exactly
        // this to its output channel.)
        panic!("producer died mid-stream");
    });
    let mut rows = Vec::new();
    loop {
        match rx.recv() {
            Ok(Msg::Batch(b)) => rows.extend(b.rows),
            Ok(Msg::Cols(b)) => rows.extend(b.to_rows()),
            // The pre-fix consumer seam: disconnect looks like Eof.
            Ok(Msg::Eof) | Err(_) => break,
        }
    }
    assert!(producer.join().is_err(), "producer must have panicked");
    // 20 of the intended 40 rows "successfully" returned — a partial Ok
    // with no indication anything failed. This is what the engine's
    // strict Eof discipline forbids.
    assert_eq!(rows.len(), 20);
}

#[test]
fn operator_panic_is_contained_and_attributed() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    let opts =
        small_batches().with_faults(FaultPlan::none().with_kind_fault("Scan", 1, FaultKind::Panic));
    let err = execute_baseline(Arc::clone(&plan), opts).unwrap_err();
    assert_eq!(err.layer(), "exec", "panic must surface as an exec error");
    assert_eq!(err.exec_class(), Some(ExecFailure::Panic));
    assert!(err.is_primary(), "a panic is a root cause, not a symptom");
    let msg = err.to_string();
    assert!(
        msg.contains("Scan") && msg.contains("injected fault"),
        "panic error must name the failing operator kind: {msg}"
    );
}

#[test]
fn faults_at_every_kind_never_yield_partial_ok() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    let expected = canonical(&execute_oracle(&plan).unwrap());
    for kind_name in ["Scan", "HashJoin", "Aggregate"] {
        for (fault, class) in [
            (FaultKind::Panic, ExecFailure::Panic),
            (FaultKind::Error, ExecFailure::Error),
        ] {
            let opts = small_batches().with_faults(FaultPlan::none().with_kind_fault(
                kind_name,
                1,
                fault.clone(),
            ));
            let err = execute_baseline(Arc::clone(&plan), opts).unwrap_err();
            assert_eq!(
                err.exec_class(),
                Some(class),
                "{kind_name}/{fault:?} must classify as {class:?}, got: {err}"
            );
            assert!(
                err.to_string().contains(kind_name),
                "{kind_name}/{fault:?} error must be attributed to the kind: {err}"
            );
        }
    }
    // The same plan with no faults installed is byte-identical to the
    // oracle — the fault machinery costs nothing when idle.
    let out = execute_baseline(plan, small_batches()).unwrap();
    assert_eq!(canonical(&out.rows), expected);
}

#[test]
fn stall_fault_trips_deadline_with_phase_shares() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    let opts = small_batches()
        .with_trace(TraceLevel::Ops)
        .with_deadline(Duration::from_millis(100))
        .with_faults(FaultPlan::none().with_kind_fault(
            "Scan",
            1,
            FaultKind::Stall(Duration::from_secs(30)),
        ));
    let start = std::time::Instant::now();
    let err = execute_baseline(plan, opts).unwrap_err();
    let elapsed = start.elapsed();
    let msg = err.to_string();
    assert!(
        msg.contains("deadline exceeded"),
        "stalled query must report the deadline, got: {msg}"
    );
    assert!(
        msg.contains("phase shares"),
        "deadline error must attach per-phase time shares, got: {msg}"
    );
    // The stall is 30 s; the deadline must tear the pipeline down long
    // before that (cancellable sleeps wake within their 2 ms slice).
    assert!(
        elapsed < Duration::from_secs(5),
        "deadline must interrupt the stall promptly, took {elapsed:?}"
    );
}

#[test]
fn zero_deadline_rejected_at_config_time() {
    let opts = ExecOptions::default().with_deadline(Duration::ZERO);
    let err = opts.validate().unwrap_err();
    assert_eq!(err.layer(), "config");
    // The executor entry points validate before spawning any thread, so a
    // hand-assembled zero deadline also fails as a config error.
    let c = small_catalog(10);
    let plan = join_agg_plan(&c);
    let err =
        execute_baseline(plan, ExecOptions::default().with_deadline(Duration::ZERO)).unwrap_err();
    assert_eq!(err.layer(), "config");
}

/// Monitor that cancels the query as soon as execution starts (before
/// the first scan batch can clear the emitter's token check) and
/// captures the frozen metrics of the torn-down run.
struct CancelAtStart {
    reasons: Vec<&'static str>,
    probe: TraceProbe,
}

impl ExecMonitor for CancelAtStart {
    fn on_query_start(&self, ctx: &Arc<ExecContext>) {
        for r in &self.reasons {
            ctx.cancel.cancel(*r);
        }
    }
    fn on_trace(&self, ctx: &Arc<ExecContext>, metrics: &sip_engine::ExecMetrics) {
        self.probe.on_trace(ctx, metrics);
    }
}

#[test]
fn cancel_during_first_batch_yields_cancelled_profile() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    let monitor = Arc::new(CancelAtStart {
        reasons: vec!["user abort"],
        probe: TraceProbe::default(),
    });
    let err = execute(
        Arc::clone(&plan),
        Arc::clone(&monitor) as Arc<dyn ExecMonitor>,
        small_batches().with_trace(TraceLevel::Ops),
    )
    .unwrap_err();
    assert_eq!(err.exec_class(), Some(ExecFailure::Cancelled));
    assert!(
        err.to_string().contains("user abort"),
        "cancellation error must carry the reason: {err}"
    );
    // Even a run cancelled on its first batch freezes coherent metrics
    // and serializes a schema-valid profile flagged `cancelled`.
    let captured = monitor.probe.captured.lock().unwrap();
    assert_eq!(captured.len(), 1, "on_trace must fire for failed runs too");
    let metrics = &captured[0];
    assert!(metrics.cancelled, "metrics must record the cancellation");
    assert_eq!(
        metrics.attribution_underflow, 0,
        "teardown must not corrupt span accounting"
    );
    let profile = QueryProfile::from_run(&plan, metrics, None);
    assert!(profile.cancelled);
    let json = profile.to_json();
    assert!(
        json.contains("\"cancelled\": true"),
        "profile JSON must carry the cancelled flag: {json}"
    );
}

#[test]
fn double_cancel_is_idempotent_first_reason_wins() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    let monitor = Arc::new(CancelAtStart {
        reasons: vec!["first reason", "second reason"],
        probe: TraceProbe::default(),
    });
    let err = execute(plan, monitor, small_batches()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("first reason"), "first reason must win: {msg}");
    assert!(
        !msg.contains("second reason"),
        "later cancels are no-ops: {msg}"
    );
}

/// Every thread of `ctx`'s run was joined, and each one counted itself in
/// and out of the run's thread ledger.
fn assert_ledger_balanced(ctx: &ExecContext, what: &str) {
    let t = &ctx.threads;
    assert!(t.spawned() > 0, "{what}: the run spawned nothing");
    assert_eq!(t.live(), 0, "{what}: threads still running after return");
    assert_eq!(
        t.started(),
        t.spawned(),
        "{what}: spawned threads that never ran"
    );
}

#[test]
fn faulted_runs_leak_no_threads() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    for kind_name in ["Scan", "HashJoin", "Aggregate"] {
        for fault in [FaultKind::Panic, FaultKind::Error] {
            let opts =
                small_batches().with_faults(FaultPlan::none().with_kind_fault(kind_name, 1, fault));
            let ctx = ExecContext::new(Arc::clone(&plan), opts);
            assert!(execute_ctx(Arc::clone(&ctx), Arc::new(NoopMonitor)).is_err());
            assert_ledger_balanced(&ctx, kind_name);
        }
    }
}

/// A retry policy fast enough for tests: microsecond backoff, three
/// attempts total.
fn test_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        base_backoff: Duration::from_micros(200),
        ..RetryPolicy::with_attempts(attempts)
    }
}

#[test]
fn whole_run_retry_heals_bounded_faults_byte_identically() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    let expected = canonical(&execute_oracle(&plan).unwrap());
    for kind_name in ["Scan", "HashJoin", "Aggregate"] {
        for fault in [FaultKind::Panic, FaultKind::Error] {
            // The fault fires exactly once (shared ledger), so attempt 2
            // runs clean.
            let opts = small_batches()
                .with_faults(FaultPlan::none().with_kind_fault_times(
                    kind_name,
                    1,
                    fault.clone(),
                    1,
                ))
                .with_retry(test_retry(3));
            let out = execute_with_recovery(Arc::clone(&plan), Arc::new(NoopMonitor), opts)
                .unwrap_or_else(|e| panic!("{kind_name}/{fault:?} must recover, got: {e}"));
            assert_eq!(
                canonical(&out.rows),
                expected,
                "{kind_name}/{fault:?} recovered run diverged from oracle"
            );
            assert!(
                out.metrics.recovered,
                "{kind_name}/{fault:?} must flag recovery"
            );
            assert_eq!(out.metrics.attempts, 2, "{kind_name}/{fault:?} attempts");
        }
    }
}

#[test]
fn retry_budget_exhaustion_names_the_policy() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    // Unlimited fault: every attempt dies the same way.
    let opts = small_batches()
        .with_faults(FaultPlan::none().with_kind_fault("HashJoin", 1, FaultKind::Error))
        .with_retry(test_retry(3));
    let err = execute_with_recovery(plan, Arc::new(NoopMonitor), opts).unwrap_err();
    assert!(
        is_exhausted(&err),
        "exhaustion must carry the marker: {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("RetryPolicy exhausted after 3/3 attempts"),
        "error must name the spent budget: {msg}"
    );
    assert_eq!(err.exec_class(), Some(ExecFailure::Error));
    assert!(
        msg.contains("HashJoin"),
        "attribution must survive exhaustion marking: {msg}"
    );
}

#[test]
fn cancellation_and_deadlines_are_never_retried() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    let opts = small_batches()
        .with_deadline(Duration::from_millis(50))
        .with_faults(FaultPlan::none().with_kind_fault(
            "Scan",
            1,
            FaultKind::Stall(Duration::from_secs(30)),
        ))
        .with_retry(test_retry(5));
    let start = std::time::Instant::now();
    let err = execute_with_recovery(plan, Arc::new(NoopMonitor), opts).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        err.to_string().contains("deadline exceeded"),
        "deadline must win: {err}"
    );
    assert!(
        !is_exhausted(&err),
        "a deadline is not a retry budget: {err}"
    );
    // One deadline, not five: the run was not re-attempted.
    assert!(
        elapsed < Duration::from_secs(5),
        "cancelled runs must not burn retry attempts, took {elapsed:?}"
    );
}

#[test]
fn recovered_profile_reports_attempts() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    let opts = small_batches()
        .with_faults(FaultPlan::none().with_kind_fault_times("Aggregate", 1, FaultKind::Error, 1))
        .with_retry(test_retry(3));
    let out = execute_with_recovery(Arc::clone(&plan), Arc::new(NoopMonitor), opts).unwrap();
    let profile = QueryProfile::from_run(&plan, &out.metrics, None);
    assert!(profile.recovered);
    assert_eq!(profile.attempts, 2);
    let json = profile.to_json();
    assert!(
        json.contains("\"recovered\": true") && json.contains("\"attempts\": 2"),
        "profile JSON must carry the recovery outcome: {json}"
    );
}

#[test]
fn recovered_runs_leak_no_threads() {
    let c = small_catalog(500);
    let plan = join_agg_plan(&c);
    for kind_name in ["Scan", "HashJoin", "Aggregate"] {
        let heal = FaultPlan::none().with_kind_fault_times(kind_name, 1, FaultKind::Panic, 1);
        let exhaust = FaultPlan::none().with_kind_fault(kind_name, 1, FaultKind::Error);
        for (faults, budget, must_heal) in [(heal, 3, true), (exhaust, 2, false)] {
            let opts = small_batches()
                .with_faults(faults)
                .with_retry(test_retry(budget));
            let mut attempts: Vec<Arc<ExecContext>> = Vec::new();
            let result = run_with_recovery(opts, |o| {
                let ctx = ExecContext::new(Arc::clone(&plan), o);
                attempts.push(Arc::clone(&ctx));
                execute_ctx(ctx, Arc::new(NoopMonitor))
            });
            assert_eq!(result.is_ok(), must_heal, "{kind_name}: {result:?}");
            assert_eq!(attempts.len(), 2, "{kind_name}: attempts");
            for ctx in &attempts {
                assert_ledger_balanced(ctx, kind_name);
            }
            if let Ok(out) = result {
                assert_eq!(out.metrics.threads_spawned, attempts[1].threads.spawned());
                assert_eq!(out.metrics.threads_live_at_end, 0);
            }
        }
    }
}

#[test]
fn fault_free_runs_with_generous_deadline_match_oracle() {
    let c = small_catalog(400);
    let plan = join_agg_plan(&c);
    let expected = canonical(&execute_oracle(&plan).unwrap());
    for batch in [1usize, 3, 64] {
        let opts = ExecOptions {
            batch_size: batch,
            channel_capacity: 1,
            ..Default::default()
        }
        .with_deadline(Duration::from_secs(60));
        let out: QueryOutput = execute_baseline(Arc::clone(&plan), opts).unwrap();
        assert_eq!(canonical(&out.rows), expected, "batch={batch}");
    }
}
