//! The all-to-all hash-repartition (shuffle) operators.
//!
//! A shuffle mesh lets `sip-parallel` change the partitioning class in the
//! middle of a plan: `writers` producer streams (each owning one hash
//! partition of the *old* class) are re-dealt into `dop` consumer streams
//! (each owning one hash partition of the *new* class) over a grid of
//! bounded channels held by the [`ExecContext`].
//!
//! Routing is a batch kernel: one digest pass per incoming batch feeds the
//! filter-tap stack (applied once, before routing — every row lands in
//! exactly one destination either way) *and* the destination choice, and
//! rows are dealt via per-destination selection vectors gathered into the
//! outgoing batches.
//!
//! Deadlock freedom: writers only ever *send* into the mesh and readers
//! only ever *receive* from it, so every blocking edge — producer → writer
//! (tree), writer → reader (mesh), reader → consumer (tree) — points
//! toward the root, whose channel the driver drains. The wait-for graph is
//! acyclic at any channel capacity, including the capacity-1 stress
//! configuration the property tests run.

use super::driver::{Payload, PushOp};
use super::Emitter;
use crate::context::{ExecContext, Msg};
use crate::taps::TapKernel;
use crossbeam::channel::Sender;
use sip_common::trace::{OpTracer, Phase};
use sip_common::{exec_err, hash::partition_of, OpId, Result, SelVec};
use std::sync::Arc;

/// A `ShuffleWrite` node: route each input row to the mesh channel of the
/// consumer partition owning its key hash. The tree output stays empty
/// (EOF only) — it exists so the paired reader anchors the writer in the
/// plan tree. A `ShuffleRead` is a [`super::exchange::Union`] over its
/// mesh inputs and that tree input.
pub(crate) struct ShuffleWrite<'a> {
    ctx: &'a Arc<ExecContext>,
    op: OpId,
    col: usize,
    dop: u32,
    /// The tree output, which carries only the final `Eof`.
    out: Sender<Msg>,
    /// One emitter per destination: each counts rows_out and batches
    /// independently, so a full window toward one reader never blocks
    /// traffic toward the others until this thread actually has a row for
    /// the full one. The tap runs *here*, fused with the routing kernel
    /// (every row reaches exactly one destination, so probing before
    /// routing applies each filter to each row exactly once), hence the
    /// passthrough emitters.
    emitters: Vec<Emitter<'a>>,
    kernel: TapKernel,
    tr: OpTracer,
    /// Per-destination selection vectors, refilled for every batch.
    route: Vec<SelVec>,
    owners: Vec<u32>,
    routed: Vec<u64>,
}

impl<'a> ShuffleWrite<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        op: OpId,
        mesh: u32,
        col: usize,
        writer: u32,
        dop: u32,
        out: Sender<Msg>,
    ) -> Result<Self> {
        let txs = ctx
            .take_shuffle_senders(mesh, writer)
            .ok_or_else(|| exec_err!("mesh {mesh} writer {writer} has no senders"))?;
        Ok(ShuffleWrite {
            ctx,
            op,
            col,
            dop,
            out,
            emitters: txs
                .into_iter()
                .map(|tx| Emitter::passthrough(ctx, op, tx))
                .collect(),
            kernel: TapKernel::new(),
            tr: ctx.tracer(op),
            route: (0..dop as usize).map(|_| SelVec::default()).collect(),
            owners: Vec::new(),
            routed: vec![0u64; dop as usize],
        })
    }
}

impl PushOp for ShuffleWrite<'_> {
    // Route the surviving selection. The routing digests come from the same
    // cache as the tap's, so a filter over the shuffle key costs no extra
    // hash pass. NULL routing keys hash like any value: all NULL rows of a
    // stream land in one consistent partition, keeping the union across
    // readers multiset-correct even for rows that can never join. Columnar
    // batches are dealt as per-destination column gathers and stay
    // columnar on the mesh.
    fn push(&mut self, _input: usize, payload: Payload) -> Result<()> {
        let (ctx, op, col) = (self.ctx, self.op, self.col);
        self.kernel.begin(payload.len());
        let t0 = self.tr.begin();
        match &payload {
            Payload::Batch(b) => self.kernel.probe_op(ctx, op, &b.rows),
            Payload::Cols(c) => self.kernel.probe_op_cols(ctx, op, c),
        };
        self.tr.end(Phase::TapProbe, t0);
        let t0 = self.tr.begin();
        for s in self.route.iter_mut() {
            s.clear();
        }
        let d = match &payload {
            Payload::Batch(b) => self.kernel.digests(&b.rows, &[col]),
            Payload::Cols(c) => self.kernel.digests_cols(c, &[col]),
        }
        .digests();
        self.owners.clear();
        self.owners
            .extend(d.iter().map(|&d| partition_of(d, self.dop)));
        for i in self.kernel.sel().iter() {
            self.route[self.owners[i as usize] as usize].push(i);
        }
        // One Compute span per batch covering digest + deal; the emitters'
        // auto-flush sends inside extend_sel are recorded as nested time.
        self.tr.end(Phase::Compute, t0);
        let t_deal = self.tr.begin();
        let dealt = self.route.iter().enumerate();
        match &payload {
            Payload::Batch(b) => {
                for (owner, s) in dealt {
                    self.routed[owner] += s.len() as u64;
                    self.emitters[owner].extend_sel(&b.rows, s.as_slice())?;
                }
            }
            Payload::Cols(c) => {
                for (owner, s) in dealt.filter(|(_, s)| !s.is_empty()) {
                    self.routed[owner] += s.len() as u64;
                    self.emitters[owner].push_cols(c.gather(s.as_slice()))?;
                }
            }
        }
        self.tr.add(Phase::Compute, t_deal);
        Ok(())
    }

    /// Every reader hung up (query failed/cancelled downstream): stop
    /// pulling so the producer side winds down too.
    fn hung_up(&self) -> bool {
        self.emitters.iter().all(|e| e.cancelled())
    }

    fn close(mut self) -> Result<()> {
        for e in self.emitters {
            e.finish()?;
        }
        // Publish the per-destination row counts once.
        self.tr.set_routed(&self.routed);
        self.tr.flush();
        let _ = self.out.send(Msg::Eof);
        Ok(())
    }
}
