//! Partition-parallel plumbing operators: `Exchange` (hash-repartition
//! filter) and `Merge` (N-ary stream union).
//!
//! Both are pure plumbing for `sip-parallel`: an `Exchange` keeps exactly
//! the rows whose partition key hashes to its partition, so `dop` sibling
//! Exchanges over clones of the same input stream realize an all-to-all
//! repartition within the engine's tree-shaped channel topology; a `Merge`
//! fans partition clones back into one stream, selecting across its inputs
//! so no partition is stalled behind a slower sibling's backpressure
//! window. The same union reads a shuffle reader's mesh inputs.
//!
//! The operator itself is arity-agnostic; `sip-parallel` arranges `Merge`
//! nodes into a *tree* (fan-in from `PartitionConfig::merge_fanin`, auto:
//! binary above dop 4) so the per-batch
//! merge work — select registration, input counters, the emit hop — is
//! spread over several threads instead of funnelling every partition
//! through one serial merge at the root of large outputs.
//!
//! The Exchange fuses its filter tap with the ownership kernel: one digest
//! pass per batch feeds both the partition check and (when a filter probes
//! the partition column — the common AIP case) the tap stack.

use super::driver::{Payload, PushOp};
use super::Emitter;
use crate::context::{ExecContext, Msg};
use crate::taps::TapKernel;
use crossbeam::channel::Sender;
use sip_common::trace::{OpTracer, Phase};
use sip_common::{hash::partition_of, OpId, Result};
use std::sync::Arc;

/// An `Exchange` node: forward rows owned by this partition.
pub(crate) struct Exchange<'a> {
    ctx: &'a Arc<ExecContext>,
    op: OpId,
    col: usize,
    partition: u32,
    dop: u32,
    emitter: Emitter<'a>,
    tr: OpTracer,
    kernel: TapKernel,
    kept: u64,
}

impl<'a> Exchange<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        op: OpId,
        col: usize,
        partition: u32,
        dop: u32,
        out: Sender<Msg>,
    ) -> Self {
        Exchange {
            ctx,
            op,
            col,
            partition,
            dop,
            // The tap runs here, fused with the ownership kernel, so the
            // emitter must not apply it a second time.
            emitter: Emitter::passthrough(ctx, op, out).outside_compute(),
            tr: ctx.tracer(op),
            kernel: TapKernel::new(),
            kept: 0,
        }
    }
}

impl PushOp for Exchange<'_> {
    // NULL keys hash like any value: every NULL row lands in the same
    // single partition, so the union over all partitions stays
    // multiset-correct even for rows that can never join. The columnar and
    // row paths run the same fused ownership-check + tap over the shared
    // digest pass; columnar batches stay columnar (survivors gathered per
    // column, or the view forwarded untouched when every row survives).
    fn push(&mut self, _input: usize, payload: Payload) -> Result<()> {
        let (ctx, op, col) = (self.ctx, self.op, self.col);
        let (partition, dop) = (self.partition, self.dop);
        let owned = |d: u64| partition_of(d, dop) == partition;
        let (kernel, tr) = (&mut self.kernel, &mut self.tr);
        kernel.begin(payload.len());
        let t0 = tr.begin();
        match &payload {
            Payload::Batch(b) => kernel.retain_by_digest(&b.rows, &[col], owned),
            Payload::Cols(c) => kernel.retain_by_digest_cols(c, &[col], owned),
        }
        tr.end(Phase::Compute, t0);
        // The tap applies to the rows this Exchange would emit — its own
        // partition's rows only — sharing the digest pass above whenever a
        // filter probes the partition column.
        let t0 = tr.begin();
        match &payload {
            Payload::Batch(b) => kernel.probe_op(ctx, op, &b.rows),
            Payload::Cols(c) => kernel.probe_op_cols(ctx, op, c),
        };
        tr.end(Phase::TapProbe, t0);
        // Count after the tap, matching ShuffleWrite's routed semantics
        // (rows actually sent to the destination).
        self.kept += kernel.sel().len() as u64;
        let t_cmp = tr.begin();
        let kept = payload.select(kernel.sel());
        tr.add(Phase::Compute, t_cmp);
        self.emitter.forward(kept)
    }

    fn hung_up(&self) -> bool {
        self.emitter.cancelled()
    }

    fn close(mut self) -> Result<()> {
        // An Exchange routes by keeping its own partition's rows: publish
        // them as this destination's routed count so the per-partition skew
        // view covers broadcast-pruned replicas too.
        let mut routed = vec![0u64; self.dop as usize];
        routed[self.partition as usize] = self.kept;
        self.tr.set_routed(&routed);
        self.emitter.finish()?;
        self.tr.flush();
        Ok(())
    }
}

/// A `Merge` node, or a `ShuffleRead` over its mesh inputs: the union of
/// all inputs, ending when every input ends. Batches are forwarded whole —
/// the emitter adopts each incoming allocation rather than re-buffering
/// row by row.
pub(crate) struct Union<'a> {
    emitter: Emitter<'a>,
}

impl<'a> Union<'a> {
    pub(crate) fn new(ctx: &'a Arc<ExecContext>, op: OpId, out: Sender<Msg>) -> Self {
        Union {
            emitter: Emitter::new(ctx, op, out).outside_compute(),
        }
    }
}

impl PushOp for Union<'_> {
    const UNION: bool = true;

    fn push(&mut self, _input: usize, payload: Payload) -> Result<()> {
        self.emitter.forward(payload)
    }

    fn hung_up(&self) -> bool {
        self.emitter.cancelled()
    }

    fn close(self) -> Result<()> {
        self.emitter.finish()
    }
}
