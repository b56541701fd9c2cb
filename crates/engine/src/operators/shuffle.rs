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
use crate::monitor::ExecMonitor;
use crate::physical::{SaltRole, SaltSpec};
use crate::taps::TapKernel;
use crossbeam::channel::Sender;
use sip_common::trace::{OpTracer, Phase};
use sip_common::{exec_err, hash::partition_of, OpId, Result, SelVec, SpaceSaving};
use std::sync::Arc;

/// Candidate slots the per-writer space-saving sketch tracks. Guarantees
/// any key above `1/64` of the *sampled* stream is observed, at a few KB
/// of state per writer.
const SKETCH_CAPACITY: usize = 64;

/// The sketch sees every row until this many have been offered…
const SKETCH_WARMUP: u64 = 4096;

/// …then every `SKETCH_STRIDE`-th routed row. On a high-cardinality
/// stream the sketch's eviction path (an O(capacity) min-scan per
/// untracked key) would otherwise run per row and dwarf the routing push
/// itself; stride sampling keeps the observability near-free while a key
/// holding share `s` of the stream still holds share `s` of the sample,
/// so heavy hitters remain detectable — estimates and thresholds all
/// scale with the sampled total.
const SKETCH_STRIDE: u64 = 16;

/// Deal one batch's surviving selection into per-destination selection
/// vectors — the layout-agnostic core of the shuffle writer, shared by the
/// row and columnar arms. `route` is cleared and refilled; `rr`, `seen`,
/// and the sketch carry across batches.
#[allow(clippy::too_many_arguments)]
fn deal_routes(
    salt: &Option<SaltSpec>,
    dop: u32,
    rr: &mut u32,
    seen: &mut u64,
    sketch: &mut SpaceSaving,
    route: &mut [SelVec],
    owners: &[u32],
    digs: &[u64],
    sel: &SelVec,
) {
    for s in route.iter_mut() {
        s.clear();
    }
    for i in sel.iter() {
        let iu = i as usize;
        *seen += 1;
        if *seen <= SKETCH_WARMUP || seen.is_multiple_of(SKETCH_STRIDE) {
            sketch.offer(digs[iu]);
        }
        match salt {
            Some(s) if s.keys.covers(digs[iu]) => match s.role {
                SaltRole::Scatter => {
                    route[*rr as usize].push(i);
                    *rr = (*rr + 1) % dop;
                }
                SaltRole::Broadcast => {
                    for dest in route.iter_mut() {
                        dest.push(i);
                    }
                }
            },
            _ => route[owners[iu] as usize].push(i),
        }
    }
}

/// A `ShuffleWrite` node: route each input row to the mesh channel of the
/// consumer partition owning its key hash. Salted (hot) keys route outside
/// the hash invariant — round-robin across all readers for a `Scatter`
/// writer, to every reader for a `Broadcast` writer — which is what keeps a
/// Zipf-hot key from saturating one reader (see
/// [`crate::physical::SaltSpec`]). The tree output stays empty (EOF only) —
/// it exists so the paired reader anchors the writer in the plan tree.
/// A `ShuffleRead` is a [`super::exchange::Union`] over its mesh inputs and
/// that tree input.
pub(crate) struct ShuffleWrite<'a> {
    ctx: &'a Arc<ExecContext>,
    monitor: &'a dyn ExecMonitor,
    op: OpId,
    mesh: u32,
    col: usize,
    dop: u32,
    salt: &'a Option<SaltSpec>,
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
    route: Vec<SelVec>,
    owners: Vec<u32>,
    digs: Vec<u64>,
    /// Round-robin cursor for scattered (salted) rows; writers start at
    /// their own index so a mesh's writers do not all hammer reader 0
    /// first.
    rr: u32,
    /// Online skew observability: every routing digest feeds a
    /// space-saving sketch (sharing the digest pass the router computed
    /// anyway), so the metrics report which keys actually ran hot —
    /// validating, or contradicting, the plan-time salt decision.
    sketch: SpaceSaving,
    seen: u64,
    routed: Vec<u64>,
}

impl<'a> ShuffleWrite<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        monitor: &'a dyn ExecMonitor,
        op: OpId,
        mesh: u32,
        col: usize,
        writer: u32,
        dop: u32,
        salt: &'a Option<SaltSpec>,
        out: Sender<Msg>,
    ) -> Result<Self> {
        let txs = ctx
            .take_shuffle_senders(mesh, writer)
            .ok_or_else(|| exec_err!("mesh {mesh} writer {writer} has no senders"))?;
        Ok(ShuffleWrite {
            ctx,
            monitor,
            op,
            mesh,
            col,
            dop,
            salt,
            out,
            emitters: txs
                .into_iter()
                .map(|tx| Emitter::passthrough(ctx, op, tx))
                .collect(),
            kernel: TapKernel::new(),
            tr: ctx.tracer(op),
            route: (0..dop as usize).map(|_| SelVec::default()).collect(),
            owners: Vec::new(),
            digs: Vec::new(),
            rr: writer % dop,
            sketch: SpaceSaving::new(SKETCH_CAPACITY),
            seen: 0,
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
        {
            let d = match &payload {
                Payload::Batch(b) => self.kernel.digests(&b.rows, &[col]),
                Payload::Cols(c) => self.kernel.digests_cols(c, &[col]),
            }
            .digests();
            self.owners.clear();
            self.owners
                .extend(d.iter().map(|&d| partition_of(d, self.dop)));
            self.digs.clear();
            self.digs.extend_from_slice(d);
        }
        deal_routes(
            self.salt,
            self.dop,
            &mut self.rr,
            &mut self.seen,
            &mut self.sketch,
            &mut self.route,
            &self.owners,
            &self.digs,
            self.kernel.sel(),
        );
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
        // Publish routing observability once: per-destination row counts,
        // the keys whose observed share of this writer's stream exceeded
        // one reader's fair share, and the sketch itself (so a
        // stage-boundary drain can merge the per-writer frequency summaries
        // into one mesh-wide histogram).
        let hot_threshold = (self.sketch.total() / self.dop.max(1) as u64).max(1);
        let observed_hot = self.sketch.heavy_hitters(hot_threshold).len() as u64;
        self.tr.set_routed(&self.routed, observed_hot);
        self.tr.set_sketch(self.sketch);
        self.tr.flush();
        // Tree EOF first: the paired reader (and the rest of the pipeline)
        // can keep draining while the last writer builds the boundary
        // snapshot.
        let _ = self.out.send(Msg::Eof);
        if self.ctx.mesh_writer_finished(self.mesh) {
            // This thread's flush above is already in the hub, so the drain
            // sees every writer of the mesh — a complete stage picture.
            let fb = self.ctx.stage_feedback(self.mesh);
            self.monitor.on_stage_boundary(self.ctx, &fb);
        }
        Ok(())
    }
}
