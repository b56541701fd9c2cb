//! Operator implementations. One OS thread runs each operator; rows flow
//! through bounded channels, giving the nondeterministic, backpressured
//! scheduling that push-style engines rely on (§I).
//!
//! Scans are sources: each runs its own loop over its table. Every other
//! operator is a consumer written as push callbacks ([`driver::PushOp`]):
//! `push` for each arriving batch, `input_done` for each input's `Eof`,
//! and `close` at the end, emitting through an [`Emitter`]. One driver
//! ([`driver::drive`]) owns the receive side for all of them — the
//! live-input select, receive tracing, the per-batch fault and
//! cancellation check, the input counters, the Eof-vs-disconnect rule,
//! and stopping once the downstream has hung up — so operators hold only
//! their state and kernels.
//!
//! Operator *interiors* are batch-at-a-time: each incoming batch gets one
//! key-digest pass per key-column set (shared between the join probe, the
//! injected-filter tap stack, and shuffle routing via
//! [`sip_common::DigestCache`]), and kernels drop or route rows through
//! selection vectors instead of cloning them. The row-at-a-time reference
//! semantics live in [`crate::oracle`].

pub(crate) mod aggregate;
pub(crate) mod driver;
pub(crate) mod exchange;
pub(crate) mod hash_join;
pub(crate) mod scan;
pub(crate) mod semi_join;
pub(crate) mod shuffle;
pub(crate) mod stateless;

use crate::context::{ExecContext, Msg};
use crate::fault::{FaultKind, FaultState};
use crate::metrics::OpMetrics;
use crate::monitor::{CompletionEvent, ExecMonitor, RowCollector, StateView};
use crate::taps::TapKernel;
use crossbeam::channel::Sender;
use driver::Payload;
use sip_common::error::ExecFailure;
use sip_common::trace::{OpTracer, Phase};
use sip_common::{Batch, ColumnarBatch, DigestBuffer, OpId, Result, Row, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Buffers output rows, applies this operator's filter tap once per batch
/// (as a batch kernel over shared digest buffers), updates metrics, and
/// pushes batches downstream. A failed send means the consumer is gone
/// (query cancelled or failed elsewhere); the emitter turns into a sink so
/// the operator can wind down cleanly.
///
/// Buffer discipline (two-buffer swap): `buf` is the filling batch, `spare`
/// is an idle recycled buffer. Sending hands `buf`'s allocation downstream
/// (the consumer frees it) and promotes `spare`; a batch fully dropped by
/// the tap keeps its buffer in place; [`Emitter::push_rows`] with an empty
/// `buf` adopts the caller's allocation outright and parks the idle buffer
/// as the spare. Forwarding operators therefore allocate nothing per batch
/// in steady state, and row-at-a-time producers allocate exactly the one
/// `Vec` that crosses the thread boundary.
pub(crate) struct Emitter<'a> {
    ctx: &'a Arc<ExecContext>,
    op: OpId,
    out: Sender<Msg>,
    buf: Vec<Row>,
    spare: Vec<Row>,
    /// Batch tap state; `None` when the host operator fuses the tap with
    /// its routing kernel and applies it before pushing (Exchange,
    /// ShuffleWrite).
    tap: Option<TapKernel>,
    cancelled: bool,
    /// The emitter's own span tracer (merged with the host operator's by
    /// summation — same op id). Flushes triggered from inside `push` run
    /// within the operator's `Compute` span; their duration is recorded as
    /// *nested* so the merge can subtract it from `Compute`, keeping the
    /// phases a partition of the thread's busy time.
    tracer: OpTracer,
    /// Do this host's pushes run inside a `Compute` span? Hosts that emit
    /// outside their spans (forwarding operators adopting whole batches,
    /// blocking operators emitting after their build) must say so via
    /// [`Emitter::outside_compute`], or auto-flush time would be
    /// subtracted from `Compute` spans it never ran inside.
    nested_in_compute: bool,
}

impl<'a> Emitter<'a> {
    pub(crate) fn new(ctx: &'a Arc<ExecContext>, op: OpId, out: Sender<Msg>) -> Self {
        Self::build(ctx, op, out, Some(TapKernel::new()))
    }

    /// An emitter that does **not** apply `op`'s tap on flush — for
    /// operators that already ran the tap kernel themselves (sharing its
    /// digest pass with their routing kernel). Metrics (`rows_out`) and
    /// batching behave identically.
    pub(crate) fn passthrough(ctx: &'a Arc<ExecContext>, op: OpId, out: Sender<Msg>) -> Self {
        Self::build(ctx, op, out, None)
    }

    fn build(
        ctx: &'a Arc<ExecContext>,
        op: OpId,
        out: Sender<Msg>,
        tap: Option<TapKernel>,
    ) -> Self {
        let cap = ctx.options.batch_size;
        Emitter {
            tracer: ctx.tracer(op),
            ctx,
            op,
            out,
            buf: Vec::with_capacity(cap),
            spare: Vec::new(),
            tap,
            cancelled: false,
            nested_in_compute: true,
        }
    }

    /// Declare that this host pushes rows *outside* its `Compute` spans:
    /// auto-flush time is then attributed normally (`TapProbe` +
    /// `ChannelSend`) without the nested subtraction. Required for any
    /// host that does not wrap its emitter calls in a `Compute` span —
    /// getting this wrong now trips the attribution-underflow check in
    /// [`crate::metrics::MetricsHub::finish`] instead of silently
    /// under-reporting `Compute`.
    pub(crate) fn outside_compute(mut self) -> Self {
        self.nested_in_compute = false;
        self
    }

    /// True once the downstream has hung up.
    pub(crate) fn cancelled(&self) -> bool {
        self.cancelled
    }

    /// Queue one output row.
    pub(crate) fn push(&mut self, row: Row) -> Result<()> {
        if self.cancelled {
            return Ok(());
        }
        self.buf.push(row);
        if self.buf.len() >= self.ctx.options.batch_size {
            self.flush_impl(true)?;
        }
        Ok(())
    }

    /// Queue a whole batch of output rows. With an empty buffer the rows
    /// become the batch buffer directly — the caller's allocation is
    /// reused, so forwarding operators never copy or reallocate.
    pub(crate) fn push_rows(&mut self, rows: Vec<Row>) -> Result<()> {
        if self.cancelled || rows.is_empty() {
            return Ok(());
        }
        if self.buf.is_empty() {
            // Park the larger idle buffer as the spare, adopt the rows.
            if self.buf.capacity() > self.spare.capacity() {
                std::mem::swap(&mut self.buf, &mut self.spare);
            }
            self.buf = rows;
            if self.buf.len() >= self.ctx.options.batch_size {
                self.flush_impl(true)?;
            }
        } else {
            for row in rows {
                self.push(row)?;
            }
        }
        Ok(())
    }

    /// Send a whole incoming batch on: a row batch is adopted as the
    /// buffer and flushed, a columnar batch goes through [`Emitter::push_cols`].
    pub(crate) fn forward(&mut self, payload: Payload) -> Result<()> {
        match payload {
            Payload::Batch(b) => {
                self.push_rows(b.rows)?;
                self.flush()
            }
            Payload::Cols(c) => self.push_cols(c),
        }
    }

    /// Queue the selected rows of a batch (gather by selection vector; each
    /// row is an `Arc` clone, never a deep copy).
    pub(crate) fn extend_sel(&mut self, rows: &[Row], sel: &[u32]) -> Result<()> {
        for &i in sel {
            if self.cancelled {
                return Ok(());
            }
            self.push(rows[i as usize].clone())?;
        }
        Ok(())
    }

    /// Send a columnar batch downstream: flush any buffered rows first
    /// (stream order), run the tap as a columnar kernel, gather survivors
    /// per column, and ship the batch as [`Msg::Cols`] without ever
    /// materializing rows. Producers already emit `batch_size`-bounded
    /// chunks, so no re-coalescing happens here.
    pub(crate) fn push_cols(&mut self, batch: ColumnarBatch) -> Result<()> {
        if self.cancelled {
            return Ok(());
        }
        self.flush_impl(false)?;
        if batch.is_empty() || self.cancelled {
            return Ok(());
        }
        let mut batch = batch;
        if let Some(kernel) = self.tap.as_mut() {
            if !self.ctx.taps[self.op.index()].is_empty() {
                let t0 = self.tracer.begin();
                kernel.begin(batch.len());
                if kernel.probe_op_cols(self.ctx, self.op, &batch) > 0 {
                    batch = batch.gather(kernel.sel().as_slice());
                }
                self.tracer.end(Phase::TapProbe, t0);
                if batch.is_empty() {
                    return Ok(());
                }
            }
        }
        self.ctx
            .hub
            .op(self.op)
            .rows_out
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        let t0 = self.tracer.begin();
        if self.tracer.enabled() {
            self.tracer.sample_occupancy(self.out.len());
        }
        if self.out.send(Msg::Cols(batch)).is_err() {
            self.cancelled = true;
        }
        self.tracer.end(Phase::ChannelSend, t0);
        Ok(())
    }

    /// Apply the tap (batch kernel) and send buffered rows.
    ///
    /// The tap is snapshotted and all counters are updated **once per
    /// batch** (per-row atomics would dominate the probe cost). The
    /// cancelled path neither snapshots nor allocates — a drained operator
    /// winding down after downstream hangup does no further work here.
    pub(crate) fn flush(&mut self) -> Result<()> {
        self.flush_impl(false)
    }

    /// `nested` marks flushes triggered from inside `push`/`push_rows`,
    /// which run within the caller's `Compute` span: their whole duration
    /// is additionally recorded as nested time for the merge to subtract.
    fn flush_impl(&mut self, nested: bool) -> Result<()> {
        let nested = nested && self.nested_in_compute;
        if self.cancelled {
            self.buf.clear();
            return Ok(());
        }
        // The per-batch cancellation check: every streaming operator
        // passes through here once per batch, so a tripped token (first
        // failure elsewhere, deadline, explicit cancel) tears the
        // pipeline down within one batch of work per operator. Two
        // relaxed atomic loads when untripped — the `cancel-gate` cell
        // of the kernels figure holds this to the noise floor.
        if self.ctx.cancel.is_cancelled() {
            let reason = self
                .ctx
                .cancel
                .reason()
                .unwrap_or_else(|| "query cancelled".into());
            return Err(self.ctx.attributed(self.op, reason, ExecFailure::Cancelled));
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        let t_flush = if nested { self.tracer.begin() } else { 0 };
        if let Some(kernel) = self.tap.as_mut() {
            if !self.ctx.taps[self.op.index()].is_empty() {
                let t0 = self.tracer.begin();
                kernel.begin(self.buf.len());
                if kernel.probe_op(self.ctx, self.op, &self.buf) > 0 {
                    kernel.compact(&mut self.buf);
                }
                self.tracer.end(Phase::TapProbe, t0);
                if self.buf.is_empty() {
                    // The tap dropped the whole batch: the emptied buffer
                    // stays in place, its capacity reused by the next batch.
                    if nested {
                        self.tracer.add_nested(t_flush);
                    }
                    return Ok(());
                }
            }
        }
        self.ctx
            .hub
            .op(self.op)
            .rows_out
            .fetch_add(self.buf.len() as u64, Ordering::Relaxed);
        let rows = std::mem::replace(&mut self.buf, std::mem::take(&mut self.spare));
        let t0 = self.tracer.begin();
        if self.tracer.enabled() {
            // Downstream occupancy right before the send: a persistently
            // full queue means this edge is backpressured (the send span
            // will show the blocked time).
            self.tracer.sample_occupancy(self.out.len());
        }
        if self.out.send(Msg::Batch(Batch::new(rows))).is_err() {
            self.cancelled = true;
        } else if self.buf.capacity() == 0 {
            // No recycled buffer available: provision batch capacity up
            // front so row-at-a-time pushes don't grow it piecemeal.
            self.buf.reserve(self.ctx.options.batch_size);
        }
        self.tracer.end(Phase::ChannelSend, t0);
        if nested {
            self.tracer.add_nested(t_flush);
        }
        Ok(())
    }

    /// Flush and send EOF.
    pub(crate) fn finish(mut self) -> Result<()> {
        self.flush()?;
        let _ = self.out.send(Msg::Eof);
        self.ctx
            .hub
            .op(self.op)
            .finished
            .store(true, Ordering::Relaxed);
        self.tracer.flush();
        Ok(())
    }
}

/// What every state-building operator (hash join, semijoin, aggregate,
/// distinct) holds besides its state: where it emits, where it traces,
/// where it charges state bytes, its inputs' AIP collectors, and whom it
/// tells that an input's state is complete.
pub(crate) struct Stateful<'a> {
    pub(crate) ctx: &'a Arc<ExecContext>,
    monitor: &'a dyn ExecMonitor,
    pub(crate) op: OpId,
    metrics: &'a OpMetrics,
    collectors: [Option<Box<dyn RowCollector>>; 2],
    pub(crate) emitter: Emitter<'a>,
    pub(crate) tr: OpTracer,
}

impl<'a> Stateful<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        monitor: &'a dyn ExecMonitor,
        op: OpId,
        emitter: Emitter<'a>,
    ) -> Self {
        Stateful {
            ctx,
            monitor,
            op,
            metrics: ctx.hub.op(op),
            collectors: [ctx.take_collector(op, 0), ctx.take_collector(op, 1)],
            emitter,
            tr: ctx.tracer(op),
        }
    }

    /// Charge `delta` bytes of operator state (negative releases).
    #[inline]
    pub(crate) fn add_state(&self, delta: i64) {
        self.metrics.add_state(delta, &self.ctx.hub.state);
    }

    /// One hash pass over `keys` for a whole batch from `input`, shared
    /// with that input's collector (the AIP working-copy build).
    pub(crate) fn digest(
        &mut self,
        input: usize,
        digests: &mut DigestBuffer,
        rows: &[Row],
        keys: &[usize],
    ) {
        let t0 = self.tr.begin();
        digests.compute(rows, keys);
        self.tr.end(Phase::Compute, t0);
        if let Some(c) = self.collectors[input].as_mut() {
            let t0 = self.tr.begin();
            c.admit_batch(rows, keys, digests);
            self.tr.end(Phase::AdmitBuild, t0);
        }
    }

    /// `input` reached its `Eof`: finish its collector.
    pub(crate) fn finish_collector(&mut self, input: usize) {
        if let Some(mut c) = self.collectors[input].take() {
            c.finish(self.ctx);
        }
    }

    /// Hand the controller a view of `input`'s completed state.
    pub(crate) fn report(&self, input: usize, view: &dyn StateView) {
        self.monitor.on_input_complete(
            self.ctx,
            &CompletionEvent {
                op: self.op,
                input,
                rows_in: self.metrics.rows_in[input].load(Ordering::Relaxed),
                view,
            },
        );
    }

    /// Release the `held` bytes of state still charged, then flush and
    /// send `Eof`.
    pub(crate) fn close(self, held: usize) -> Result<()> {
        self.add_state(-(held as i64));
        self.emitter.finish()?;
        self.tr.flush();
        Ok(())
    }
}

/// Extract `(digest, key values)` for the key columns, or `None` when any
/// key is NULL (SQL: NULL keys never join). Row-at-a-time — the oracle and
/// key-materializing paths use it; batch kernels use
/// [`sip_common::DigestBuffer`] instead.
#[inline]
pub(crate) fn key_of(row: &Row, positions: &[usize]) -> Option<(u64, Vec<Value>)> {
    for &p in positions {
        if row.get(p).is_null() {
            return None;
        }
    }
    Some((row.key_hash(positions), row.key_values(positions)))
}

/// Per-operator lifecycle guard: advances the injected-fault state and
/// checks the shared cancellation token, once per incoming batch. Two
/// branches + two atomic loads when no fault is armed and the token is
/// untripped.
pub(crate) struct OpGuard<'a> {
    ctx: &'a Arc<ExecContext>,
    op: OpId,
    faults: FaultState,
}

impl<'a> OpGuard<'a> {
    pub(crate) fn new(ctx: &'a Arc<ExecContext>, op: OpId) -> Self {
        OpGuard {
            faults: ctx.arm_fault(op),
            ctx,
            op,
        }
    }

    /// Call once per incoming batch (receive side — the `Emitter` covers
    /// the send side, but blocking builds may buffer many batches before
    /// their first emit, and a consumer-less fault would otherwise go
    /// unchecked until emission).
    #[inline]
    pub(crate) fn on_batch(&mut self) -> Result<()> {
        if let Some(kind) = self.faults.on_batch() {
            self.fire(kind)?;
        }
        self.ctx.check_cancel(self.op)
    }

    fn fire(&self, kind: FaultKind) -> Result<()> {
        match kind {
            FaultKind::Panic => panic!(
                "injected fault: panic at op {} ({})",
                self.op,
                self.ctx.plan.node(self.op).kind.name()
            ),
            FaultKind::Error => Err(self.ctx.attributed(
                self.op,
                "injected fault: operator error",
                ExecFailure::Error,
            )),
            FaultKind::Stall(d) => {
                // A cancellable stall: the follow-up check_cancel in
                // on_batch converts a mid-stall cancellation (e.g. the
                // deadline this stall was injected to blow) into the
                // operator's exit.
                self.ctx.cancel.sleep_cancellable(d);
                Ok(())
            }
            FaultKind::Hang => {
                // A wedged operator: sleep until this run's token trips
                // (failure elsewhere, deadline, explicit cancel, or the
                // progress watchdog declaring a stall), then exit as
                // cancelled. Only those get a query past this fault.
                self.ctx
                    .cancel
                    .sleep_cancellable(Duration::from_secs(86_400));
                Err(self.ctx.attributed(
                    self.op,
                    "injected fault: operator hung until cancelled",
                    ExecFailure::Cancelled,
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::lower;
    use crate::taps::MergePolicy;
    use crate::InjectedFilter;
    use sip_common::{hash_key, DataType, Field, Schema};
    use sip_data::{Catalog, Table};
    use sip_filter::{AipSetBuilder, AipSetKind};
    use sip_plan::QueryBuilder;

    pub(crate) fn scan_ctx(batch_size: usize) -> Arc<ExecContext> {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let rows: Vec<Row> = (0..8).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut c = Catalog::new();
        c.add(Table::new("t", schema, vec![], vec![], rows).unwrap());
        let mut q = QueryBuilder::new(&c);
        let t = q.scan("t", "t", &["k"]).unwrap();
        let plan = lower(t.plan(), q.attrs().clone(), &c).unwrap();
        ExecContext::new(
            Arc::new(plan),
            crate::context::ExecOptions {
                batch_size,
                ..Default::default()
            },
        )
    }

    fn keys_filter(keys: &[i64]) -> InjectedFilter {
        let mut b = AipSetBuilder::new(AipSetKind::Hash, keys.len().max(1), 0.05, 1);
        for &k in keys {
            let key = vec![Value::Int(k)];
            b.insert(hash_key(&key), &key);
        }
        InjectedFilter::new("test", vec![0], Arc::new(b.finish()))
    }

    #[test]
    fn flush_applies_tap_and_counts_once_per_batch() {
        let ctx = scan_ctx(64);
        let op = OpId(0);
        ctx.inject_filter(op, keys_filter(&[1, 3]), MergePolicy::Stack);
        let (tx, rx) = crossbeam::channel::bounded(4);
        let mut e = Emitter::new(&ctx, op, tx);
        for i in 0..4 {
            e.push(Row::new(vec![Value::Int(i)])).unwrap();
        }
        e.flush().unwrap();
        // 4 probed, 2 dropped — tallied exactly once for the whole batch,
        // on both the hub and the per-filter counters.
        let m = ctx.hub.op(op);
        assert_eq!(m.aip_probed.load(Ordering::Relaxed), 4);
        assert_eq!(m.aip_dropped.load(Ordering::Relaxed), 2);
        let chain = ctx.taps[op.index()].snapshot();
        assert_eq!(chain[0].probed.load(Ordering::Relaxed), 4);
        assert_eq!(chain[0].dropped.load(Ordering::Relaxed), 2);
        match rx.try_recv() {
            Ok(Msg::Batch(b)) => assert_eq!(b.len(), 2),
            other => panic!("expected surviving batch, got {other:?}"),
        }
    }

    #[test]
    fn push_rows_forwards_whole_batches() {
        let ctx = scan_ctx(4);
        let op = OpId(0);
        let (tx, rx) = crossbeam::channel::bounded(8);
        let mut e = Emitter::new(&ctx, op, tx);
        // A whole batch at/above batch_size flushes immediately, reusing
        // the caller's allocation as the outgoing batch.
        let rows: Vec<Row> = (0..5).map(|i| Row::new(vec![Value::Int(i)])).collect();
        e.push_rows(rows).unwrap();
        match rx.try_recv() {
            Ok(Msg::Batch(b)) => assert_eq!(b.len(), 5),
            other => panic!("expected forwarded batch, got {other:?}"),
        }
        // A short batch buffers until an explicit flush.
        e.push_rows(vec![Row::new(vec![Value::Int(9)])]).unwrap();
        assert!(rx.try_recv().is_err());
        e.flush().unwrap();
        match rx.try_recv() {
            Ok(Msg::Batch(b)) => assert_eq!(b.len(), 1),
            other => panic!("expected flushed batch, got {other:?}"),
        }
        assert_eq!(ctx.hub.op(op).rows_out.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn extend_sel_gathers_selected_rows() {
        let ctx = scan_ctx(64);
        let op = OpId(0);
        let (tx, rx) = crossbeam::channel::bounded(4);
        let mut e = Emitter::new(&ctx, op, tx);
        let rows: Vec<Row> = (0..6).map(|i| Row::new(vec![Value::Int(i)])).collect();
        e.extend_sel(&rows, &[1, 4, 5]).unwrap();
        e.flush().unwrap();
        match rx.try_recv() {
            Ok(Msg::Batch(b)) => {
                let got: Vec<i64> = b.rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
                assert_eq!(got, vec![1, 4, 5]);
            }
            other => panic!("expected gathered batch, got {other:?}"),
        }
    }

    #[test]
    fn whole_batch_drop_keeps_buffer_and_counts() {
        let ctx = scan_ctx(64);
        let op = OpId(0);
        // Empty filter set: every probed row drops.
        ctx.inject_filter(op, keys_filter(&[]), MergePolicy::Stack);
        let (tx, rx) = crossbeam::channel::bounded(4);
        let mut e = Emitter::new(&ctx, op, tx);
        for i in 0..4 {
            e.push(Row::new(vec![Value::Int(i)])).unwrap();
        }
        e.flush().unwrap();
        assert!(rx.try_recv().is_err(), "fully-dropped batch must not send");
        let m = ctx.hub.op(op);
        assert_eq!(m.aip_probed.load(Ordering::Relaxed), 4);
        assert_eq!(m.aip_dropped.load(Ordering::Relaxed), 4);
        assert_eq!(m.rows_out.load(Ordering::Relaxed), 0);
        // The emitter is still usable afterwards.
        e.push(Row::new(vec![Value::Int(7)])).unwrap();
        e.finish().unwrap();
        assert_eq!(m.aip_probed.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn cancelled_emitter_stops_probing_and_buffering() {
        let ctx = scan_ctx(2);
        let op = OpId(0);
        ctx.inject_filter(op, keys_filter(&[0, 1, 2, 3]), MergePolicy::Stack);
        let (tx, rx) = crossbeam::channel::bounded(4);
        let mut e = Emitter::new(&ctx, op, tx);
        drop(rx); // downstream hangs up
        e.push(Row::new(vec![Value::Int(0)])).unwrap();
        e.push(Row::new(vec![Value::Int(1)])).unwrap(); // batch full → flush → send fails
        assert!(e.cancelled());
        let probed_at_cancel = ctx.hub.op(op).aip_probed.load(Ordering::Relaxed);
        let rows_out_at_cancel = ctx.hub.op(op).rows_out.load(Ordering::Relaxed);
        // Everything after cancellation is a no-op: no buffering, no tap
        // snapshots, no counter movement.
        for i in 0..100 {
            e.push(Row::new(vec![Value::Int(i)])).unwrap();
        }
        e.flush().unwrap();
        assert_eq!(
            ctx.hub.op(op).aip_probed.load(Ordering::Relaxed),
            probed_at_cancel
        );
        assert_eq!(
            ctx.hub.op(op).rows_out.load(Ordering::Relaxed),
            rows_out_at_cancel
        );
        e.finish().unwrap();
    }

    #[test]
    fn tripped_token_fails_the_emitter_per_batch() {
        let ctx = scan_ctx(2);
        let op = OpId(0);
        let (tx, _rx) = crossbeam::channel::bounded(4);
        let mut e = Emitter::new(&ctx, op, tx);
        e.push(Row::new(vec![Value::Int(0)])).unwrap();
        ctx.cancel.cancel("test cancel");
        let err = e.flush().unwrap_err();
        assert_eq!(
            err.exec_class(),
            Some(sip_common::ExecFailure::Cancelled),
            "a tripped token must surface as an attributed Cancelled error"
        );
        assert!(err.message().contains("test cancel"));
    }

    #[test]
    fn op_guard_fires_injected_error_with_attribution() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let rows: Vec<Row> = (0..8).map(|i| Row::new(vec![Value::Int(i)])).collect();
        let mut c = Catalog::new();
        c.add(Table::new("t", schema, vec![], vec![], rows).unwrap());
        let mut q = QueryBuilder::new(&c);
        let t = q.scan("t", "t", &["k"]).unwrap();
        let plan = lower(t.plan(), q.attrs().clone(), &c).unwrap();
        let ctx = ExecContext::new(
            Arc::new(plan),
            crate::context::ExecOptions::default().with_faults(
                crate::fault::FaultPlan::none().with_kind_fault("Scan", 1, FaultKind::Error),
            ),
        );
        let mut guard = OpGuard::new(&ctx, OpId(0));
        assert!(guard.on_batch().is_ok(), "one clean batch first");
        let err = guard.on_batch().unwrap_err();
        assert_eq!(err.exec_class(), Some(sip_common::ExecFailure::Error));
        assert!(err.to_string().contains("op 0"));
    }

    #[test]
    fn key_of_rejects_nulls() {
        let r = Row::new(vec![Value::Int(1), Value::Null]);
        assert!(key_of(&r, &[0]).is_some());
        assert!(key_of(&r, &[1]).is_none());
        assert!(key_of(&r, &[0, 1]).is_none());
    }

    #[test]
    fn key_of_is_stable() {
        let a = Row::new(vec![Value::Int(7), Value::str("x")]);
        let b = Row::new(vec![Value::Int(7), Value::str("y")]);
        assert_eq!(key_of(&a, &[0]).unwrap().0, key_of(&b, &[0]).unwrap().0);
        assert_eq!(key_of(&a, &[0]).unwrap().1, vec![Value::Int(7)]);
    }
}
