//! The threaded push executor.
//!
//! Every operator runs on its own OS thread, connected by bounded channels:
//! the multithreaded, nondeterministically-scheduled execution model of
//! Tukwila (§V-A), where the CPU naturally switches to whatever part of the
//! bushy plan has data available.
//!
//! # Failure semantics
//!
//! A query returns either its complete result or an attributed error —
//! never a silent truncation. Three mechanisms enforce this:
//!
//! * **Panic containment.** Every operator thread body runs under
//!   `catch_unwind`; a panic becomes a [`SipError::ExecAt`] carrying the
//!   operator id, kind, partition, and the panic payload, instead of a
//!   closed channel that looks like EOF downstream.
//! * **Error-vs-Eof discipline.** A channel that disconnects without a
//!   clean [`Msg::Eof`] means the upstream operator died; both receive
//!   seams (the operator input driver and the root drain here) treat it
//!   as a hard error rather than end-of-stream.
//! * **First-error propagation with cancellation.** Failures land in the
//!   context's error slots ([`ExecContext::fail`]) and trip the shared
//!   [`sip_common::CancelToken`]; every other operator observes the token
//!   once per batch and winds down promptly. Root causes (panics,
//!   operator errors, stalls) take precedence over the disconnect and
//!   cancellation symptoms they trigger, so the reported error names the
//!   culprit.
//!
//! With a retry policy that sets a `stall_quantum`, a progress watchdog
//! runs beside the operators and turns a run in which no batch moves for
//! a whole quantum into a retryable [`ExecFailure::Stall`]. Every thread
//! a run spawns is counted in its [`crate::context::ThreadLedger`].

use crate::context::{ExecContext, ExecOptions, Msg};
use crate::metrics::ExecMetrics;
use crate::monitor::ExecMonitor;
use crate::operators::aggregate::{Aggregate, Distinct};
use crate::operators::driver::{drive, Payload};
use crate::operators::exchange::{Exchange, Union};
use crate::operators::hash_join::HashJoin;
use crate::operators::scan;
use crate::operators::semi_join::SemiJoin;
use crate::operators::shuffle::ShuffleWrite;
use crate::operators::stateless::{Filter, Project};
use crate::physical::{PhysKind, PhysPlan};
use crossbeam::channel::{bounded, Receiver, Sender};
use sip_common::error::ExecFailure;
use sip_common::{exec_err, OpId, Result, Row, SipError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The outcome of one query execution.
#[derive(Debug)]
pub struct QueryOutput {
    /// Result rows (empty when `collect_rows` is off).
    pub rows: Vec<Row>,
    /// Collected metrics.
    pub metrics: ExecMetrics,
}

/// Execute `plan` with `monitor` receiving runtime callbacks.
///
/// Returns when the root operator has emitted EOF and all operator threads
/// have joined. The first operator error (if any) is propagated.
pub fn execute(
    plan: Arc<PhysPlan>,
    monitor: Arc<dyn ExecMonitor>,
    options: ExecOptions,
) -> Result<QueryOutput> {
    plan.validate()?;
    let ctx = ExecContext::new(Arc::clone(&plan), options);
    execute_ctx(ctx, monitor)
}

/// Render a panic payload for attribution (panics carry `&str` or
/// `String` in practice; anything else is reported by type only).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Attach the per-phase time shares to a deadline-exceeded error so a
/// timeout is diagnosable (which phase ate the budget).
fn with_deadline_detail(e: SipError, metrics: &ExecMetrics) -> SipError {
    if !e.message().contains("deadline exceeded") {
        return e;
    }
    let shares = crate::profile::fmt_phase_split(&metrics.phase_totals());
    match e {
        SipError::ExecAt {
            message,
            op,
            kind,
            partition,
            class,
        } => SipError::ExecAt {
            message: format!("{message}; phase shares {shares}"),
            op,
            kind,
            partition,
            class,
        },
        other => SipError::Exec(format!("{}; phase shares {shares}", other.message())),
    }
}

/// Spawn a thread of this run that counts itself in the run's
/// [`crate::context::ThreadLedger`] for as long as `body` runs.
fn spawn_counted(
    ctx: &Arc<ExecContext>,
    name: String,
    body: impl FnOnce(&Arc<ExecContext>) + Send + 'static,
) -> JoinHandle<()> {
    ctx.threads.count_spawn();
    let thread_ctx = Arc::clone(ctx);
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let _live = thread_ctx.threads.enter();
            body(&thread_ctx);
        })
        .expect("spawn run thread")
}

/// Spawn one operator thread against `ctx`.
///
/// Contains panics: an uncontained panic closes this thread's channels,
/// which the consumer would otherwise have no way to distinguish from a
/// clean EOF. The channel endpoints are owned by the closure, so they
/// drop during the unwind either way — what `catch_unwind` buys is the
/// attributed error recorded *before* anyone can misread the hangup.
fn spawn_operator(
    ctx: &Arc<ExecContext>,
    monitor: &Arc<dyn ExecMonitor>,
    op: OpId,
    ins: Vec<Receiver<Msg>>,
    out: Sender<Msg>,
) -> JoinHandle<()> {
    let monitor = Arc::clone(monitor);
    let kind_name = ctx.plan.node(op).kind.name();
    spawn_counted(ctx, format!("sip-{op}-{kind_name}"), move |ctx| {
        let result = catch_unwind(AssertUnwindSafe(|| -> Result<()> {
            let monitor: &dyn ExecMonitor = monitor.as_ref();
            match &ctx.plan.node(op).kind {
                PhysKind::Scan { .. } => scan::run_scan(ctx, op, out),
                PhysKind::Filter { predicate } => {
                    drive(ctx, op, ins, Filter::new(ctx, op, predicate, out))
                }
                PhysKind::Project { exprs } => {
                    drive(ctx, op, ins, Project::new(ctx, op, exprs, out))
                }
                PhysKind::HashJoin {
                    left_keys,
                    right_keys,
                    residual,
                } => {
                    let keys = [left_keys.as_slice(), right_keys];
                    let join = HashJoin::new(ctx, monitor, op, keys, residual, out);
                    drive(ctx, op, ins, join)
                }
                PhysKind::Aggregate { group_cols, aggs } => {
                    let agg = Aggregate::new(ctx, monitor, op, group_cols, aggs, out);
                    drive(ctx, op, ins, agg)
                }
                PhysKind::Distinct => drive(ctx, op, ins, Distinct::new(ctx, monitor, op, out)),
                PhysKind::SemiJoin {
                    probe_keys,
                    build_keys,
                } => {
                    let semi = SemiJoin::new(ctx, monitor, op, probe_keys, build_keys, out);
                    drive(ctx, op, ins, semi)
                }
                PhysKind::Exchange {
                    col,
                    partition,
                    dop,
                } => drive(
                    ctx,
                    op,
                    ins,
                    Exchange::new(ctx, op, *col, *partition, *dop, out),
                ),
                PhysKind::Merge => drive(ctx, op, ins, Union::new(ctx, op, out)),
                PhysKind::ShuffleWrite {
                    mesh,
                    col,
                    writer,
                    dop,
                } => {
                    let write = ShuffleWrite::new(ctx, op, *mesh, *col, *writer, *dop, out)?;
                    drive(ctx, op, ins, write)
                }
                PhysKind::ShuffleRead {
                    mesh, partition, ..
                } => {
                    // The mesh inputs, one per writer, then the paired
                    // writer's tree input, which carries only its Eof.
                    let mut inputs =
                        ctx.take_shuffle_receivers(*mesh, *partition)
                            .ok_or_else(|| {
                                exec_err!("mesh {mesh} partition {partition} has no receivers")
                            })?;
                    inputs.extend(ins);
                    drive(ctx, op, inputs, Union::new(ctx, op, out))
                }
            }
        }));
        match result {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                // Attribute bare exec errors to this operator;
                // other layers (expr, net, ...) and already-
                // attributed errors pass through unchanged.
                let e = match e {
                    SipError::Exec(m) => ctx.attributed(op, m, ExecFailure::Error),
                    other => other,
                };
                ctx.fail(e);
            }
            Err(payload) => {
                let msg = panic_message(payload);
                ctx.fail(ctx.attributed(
                    op,
                    format!("operator thread panicked: {msg}"),
                    ExecFailure::Panic,
                ));
            }
        }
    })
}

/// A count that moves whenever a batch crosses a plan edge: received
/// batches (`batches_in`, which scans also count for the chunks they
/// read) plus emitted rows (`rows_out`, which also covers the root's edge
/// to the result drain). Both are counters the operators keep anyway.
fn progress(ctx: &ExecContext) -> u64 {
    ctx.hub
        .ops
        .iter()
        .map(|m| m.batches_in.load(Ordering::Relaxed) + m.rows_out.load(Ordering::Relaxed))
        .sum()
}

/// Spawn the run's progress watchdog. Once per `quantum` it samples
/// [`progress`]; if nothing moved since the previous sample, it records a
/// primary [`ExecFailure::Stall`] (which trips the run's token) and
/// exits, leaving the heal to the whole-run retry loop. It also exits when
/// the run is cancelled or when `done` hangs up (the root drain ended).
///
/// A run's silent stretches — a long CPU phase that neither receives nor
/// emits a batch — must stay below the quantum, or the watchdog reads
/// them as stalls.
fn spawn_watchdog(
    ctx: &Arc<ExecContext>,
    quantum: Duration,
    done: mpsc::Receiver<()>,
) -> JoinHandle<()> {
    spawn_counted(ctx, "sip-watchdog".into(), move |ctx| {
        let mut last = progress(ctx);
        while let Err(RecvTimeoutError::Timeout) = done.recv_timeout(quantum) {
            if ctx.cancel.is_cancelled() {
                return;
            }
            let now = progress(ctx);
            if now == last {
                let unfinished: Vec<String> = (0..ctx.hub.ops.len())
                    .filter(|&i| !ctx.hub.ops[i].finished.load(Ordering::Relaxed))
                    .map(|i| i.to_string())
                    .collect();
                let message = format!(
                    "progress watchdog: no batch crossed any plan edge for {quantum:?} \
                     (unfinished ops: {})",
                    unfinished.join(", ")
                );
                ctx.fail(ctx.attributed(ctx.plan.root, message, ExecFailure::Stall));
                return;
            }
            last = now;
        }
    })
}

/// Execute with a caller-constructed context — used by callers that need
/// the context itself, such as the partition-parallel executor, which
/// builds it from an expanded plan and its partition map.
pub fn execute_ctx(ctx: Arc<ExecContext>, monitor: Arc<dyn ExecMonitor>) -> Result<QueryOutput> {
    let plan = Arc::clone(&ctx.plan);
    plan.validate()?;
    // Reject degenerate sizing with a config error before any thread
    // spawns (a zero batch size would panic inside the scan's chunking).
    ctx.options.validate()?;
    monitor.on_query_start(&ctx);

    let start = Instant::now();
    let mut senders: Vec<Option<Sender<Msg>>> = Vec::with_capacity(plan.nodes.len());
    let mut receivers: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(plan.nodes.len());
    for _ in &plan.nodes {
        let (tx, rx) = bounded(ctx.options.channel_capacity);
        senders.push(Some(tx));
        receivers.push(Some(rx));
    }
    let root_rx = receivers[plan.root.index()]
        .take()
        .expect("root receiver present");

    let mut handles = Vec::with_capacity(plan.nodes.len() + 1);
    for node in &plan.nodes {
        let op = node.id;
        let out = senders[op.index()].take().expect("sender unused");
        let ins: Vec<Receiver<Msg>> = node
            .inputs
            .iter()
            .map(|c| receivers[c.index()].take().expect("input receiver unused"))
            .collect();
        handles.push(spawn_operator(&ctx, &monitor, op, ins, out));
    }
    drop(senders);
    drop(receivers);
    // Dropping `watchdog_done` after the drain stops the watchdog.
    let stall_quantum = ctx.options.retry.as_ref().and_then(|p| p.stall_quantum);
    let watchdog_done = stall_quantum.map(|q| {
        let (done, done_rx) = mpsc::channel::<()>();
        handles.push(spawn_watchdog(&ctx, q, done_rx));
        done
    });

    // Drain the root. Columnar batches convert to rows here — the root is
    // a row seam by design (callers consume `Vec<Row>`). A disconnect
    // before Eof means the root operator died: record it (as a symptom —
    // the failing operator's own error takes precedence) instead of
    // returning whatever partial result drained so far as a success.
    let mut rows: Vec<Row> = Vec::new();
    let mut rows_out = 0u64;
    let mut clean_eof = false;
    while let Ok(msg) = root_rx.recv() {
        let Some(payload) = Payload::of(msg) else {
            clean_eof = true;
            break;
        };
        rows_out += payload.len() as u64;
        if ctx.options.collect_rows {
            rows.extend(payload.into_rows().rows);
        }
    }
    if !clean_eof {
        ctx.fail(ctx.attributed(
            plan.root,
            "root channel closed before Eof",
            ExecFailure::Disconnect,
        ));
    }
    // Stop the watchdog, unblock any producer still parked on a full root
    // channel, then join everything — no thread outlives the query.
    drop(watchdog_done);
    drop(root_rx);
    for h in handles {
        if h.join().is_err() {
            // catch_unwind contains operator panics, so this fires only
            // if the error-recording path itself panicked.
            ctx.fail(SipError::Exec(
                "operator thread panicked outside containment".into(),
            ));
        }
    }
    let (spawned, live) = (ctx.threads.spawned(), ctx.threads.live());
    if live != 0 || ctx.threads.started() != spawned {
        ctx.fail(SipError::Exec(format!(
            "thread ledger unbalanced after join: {spawned} spawned, {live} still live"
        )));
    }
    let wall = start.elapsed();
    let mut metrics = ctx.finish_metrics(wall, rows_out);
    metrics.threads_spawned = spawned;
    metrics.threads_live_at_end = live;
    monitor.on_trace(&ctx, &metrics);
    monitor.on_query_end(&ctx);

    if let Some(e) = ctx.take_error() {
        return Err(with_deadline_detail(e, &metrics));
    }
    // Backstop for an external cancel that tripped the token without any
    // operator observing it before the run completed its teardown.
    if ctx.cancel.cancelled_flag() && !clean_eof {
        let reason = ctx
            .cancel
            .reason()
            .unwrap_or_else(|| "query cancelled".into());
        return Err(with_deadline_detail(SipError::Exec(reason), &metrics));
    }
    Ok(QueryOutput { rows, metrics })
}

/// Convenience: execute with no monitor (pure baseline).
pub fn execute_baseline(plan: Arc<PhysPlan>, options: ExecOptions) -> Result<QueryOutput> {
    execute(plan, Arc::new(crate::monitor::NoopMonitor), options)
}

/// [`execute`] under the options' retry policy: retryable failures
/// (panics, errors, stalls) are retried whole-run from the deterministic
/// sources, up to the budget. With no policy installed this is exactly
/// [`execute`].
pub fn execute_with_recovery(
    plan: Arc<PhysPlan>,
    monitor: Arc<dyn ExecMonitor>,
    options: ExecOptions,
) -> Result<QueryOutput> {
    crate::recovery::run_with_recovery(options, |opts| {
        execute(Arc::clone(&plan), Arc::clone(&monitor), opts)
    })
}
