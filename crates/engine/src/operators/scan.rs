//! Table scans over local, delayed and remote sources.

use super::{Emitter, OpGuard};
use crate::context::{ExecContext, Msg};
use crate::delay::{DelayState, SourceModel};
use crate::link::LinkSpec;
use crate::physical::PhysKind;
use crate::taps::TapKernel;
use crossbeam::channel::Sender;
use sip_common::trace::{FilterEvent, FilterEventKind, OpTracer, Phase};
use sip_common::{exec_err, ColumnarBatch, DigestBuffer, OpId, Result, SelVec};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Run a `Scan` node: stream the table's columnar storage, honoring any
/// configured source model.
///
/// The hot path is metadata-only: each chunk is a [`slice`] of the table's
/// column vectors and the scan layout's projection a [`select_columns`] —
/// no per-row value clones. Rows are materialized only when a partition
/// predicate actually drops rows (a per-column gather of the survivors).
///
/// [`slice`]: sip_common::ColumnarBatch::slice
/// [`select_columns`]: sip_common::ColumnarBatch::select_columns
///
/// When the scan carries a [`ScanPartition`](crate::physical::ScanPartition),
/// only rows hashing to its partition are shipped, and the delay model is
/// charged per *shipped* row — the partition predicate is pushed down to the
/// (possibly remote, slow) source, which is what lets `dop` partitioned
/// scans overlap a slow source's transmission latency. Ownership is decided
/// with one digest pass per chunk and a selection vector, not per-row
/// re-hashing.
///
/// A remote scan ([`SourceModel::Remote`]) plays the site end of the link
/// itself: it applies its own tap chain *before* transmission, so pruned
/// rows never cross the link (see [`RemoteSite::ship`]).
pub(crate) fn run_scan(ctx: &Arc<ExecContext>, op: OpId, out: Sender<Msg>) -> Result<()> {
    let node = ctx.plan.node(op);
    let (table, cols, binding, part) = match &node.kind {
        PhysKind::Scan {
            table,
            cols,
            binding,
            part,
        } => (table.clone(), cols.clone(), binding.clone(), part.clone()),
        other => return Err(exec_err!("run_scan on {}", other.name())),
    };
    let (mut delay, mut remote) = match ctx.options.source_for(&binding, table.name()) {
        Some(SourceModel::Delayed(m)) => (Some(DelayState::new(m.clone())), None),
        Some(SourceModel::Remote(link)) => (
            None,
            Some(RemoteSite {
                link: *link,
                shipped_filters: 0,
                kernel: TapKernel::new(),
            }),
        ),
        None => (None, None),
    };
    // A remote site probes the tap itself, before the link; the emitter
    // must not probe the survivors a second time.
    let emitter = match remote {
        Some(_) => Emitter::passthrough(ctx, op, out),
        None => Emitter::new(ctx, op, out),
    };
    let mut emitter = emitter.outside_compute();
    let mut guard = OpGuard::new(ctx, op);
    let mut tr = ctx.tracer(op);
    let batch = ctx.options.batch_size;
    let mut digests = DigestBuffer::default();
    let mut sel = SelVec::default();
    let source = table.columns();
    let total = source.len();
    let mut offset = 0usize;
    // A remote scan opens its connection before the first chunk.
    if let Some(site) = &remote {
        if !ctx.cancel.sleep_cancellable(site.link.latency) {
            return ctx.check_cancel(op);
        }
    }
    while offset < total {
        if emitter.cancelled() {
            break;
        }
        guard.on_batch()?;
        let n = batch.min(total - offset);
        let t0 = tr.begin();
        let mut chunk = source.slice(offset, n).select_columns(&cols);
        // Hash split: one digest pass decides ownership for the whole
        // chunk, so the delay model charges only this partition's share of
        // shipped rows.
        if let Some(p) = &part {
            digests.compute_cols(&chunk, &[p.col]);
            sel.fill_identity(n);
            let d = digests.digests();
            sel.retain(|i| p.owns(d[i as usize]));
            if sel.len() < n {
                chunk = chunk.gather(sel.as_slice());
            }
        }
        // The span covers projection + partition filtering only — the
        // simulated source delay below is transmission latency, not work.
        tr.end(Phase::Compute, t0);
        offset += n;
        if let Some(d) = delay.as_mut() {
            let pause = d.advance(chunk.len() as u64);
            // A cancellable sleep: a slow simulated source must not hold
            // a failed or deadline-blown query open for its full delay.
            if !pause.is_zero() && !ctx.cancel.sleep_cancellable(pause) {
                return ctx.check_cancel(op);
            }
        }
        if let Some(site) = remote.as_mut() {
            match site.ship(ctx, op, chunk, &mut tr) {
                Some(shipped) => chunk = shipped,
                None => return ctx.check_cancel(op),
            }
        }
        // Emit at batch granularity so delays interleave with consumption.
        emitter.push_cols(chunk)?;
    }
    emitter.finish()?;
    tr.flush();
    Ok(())
}

/// The site end of a remote scan's link: how many of the scan's filters it
/// has been sent, and the kernel that applies them before transmission.
struct RemoteSite {
    link: LinkSpec,
    shipped_filters: usize,
    kernel: TapKernel,
}

impl RemoteSite {
    /// Move one chunk across the link, the Bloomjoin of §V-B:
    ///
    /// 1. each filter injected at the scan since the previous chunk is
    ///    shipped to the site once (`transfer_time + latency`, and a
    ///    `Shipped` filter event);
    /// 2. the site probes the scan's tap chain over the chunk, publishing
    ///    the scan's `aip_probed` / `aip_dropped`;
    /// 3. only the survivors pay `transfer_time` of their bytes.
    ///
    /// Every byte charged is added to the run's `network_bytes`. Returns
    /// `None` when the run was cancelled during a transfer.
    fn ship(
        &mut self,
        ctx: &ExecContext,
        op: OpId,
        mut chunk: ColumnarBatch,
        tr: &mut OpTracer,
    ) -> Option<ColumnarBatch> {
        let chain = ctx.taps[op.index()].snapshot();
        for f in chain.iter().skip(self.shipped_filters) {
            let bytes = f.set.size_bytes() as u64;
            ctx.hub.trace.filter_event(FilterEvent {
                kind: FilterEventKind::Shipped,
                site: op.0,
                label: f.label.clone(),
                t_nanos: ctx.hub.trace.now(),
                build_nanos: 0,
                keys: f.set.n_keys(),
                bytes,
            });
            if !self.charge(ctx, bytes, self.link.latency) {
                return None;
            }
        }
        self.shipped_filters = chain.len();
        if !chain.is_empty() {
            let t0 = tr.begin();
            self.kernel.begin(chunk.len());
            if self.kernel.probe_op_cols(ctx, op, &chunk) > 0 {
                chunk = chunk.gather(self.kernel.sel().as_slice());
            }
            tr.end(Phase::TapProbe, t0);
        }
        if !chunk.is_empty() && !self.charge(ctx, chunk.size_bytes() as u64, Duration::ZERO) {
            return None;
        }
        Some(chunk)
    }

    /// Sleep for `bytes` on the link plus `extra`, counting the bytes;
    /// false when the run was cancelled during the sleep.
    fn charge(&self, ctx: &ExecContext, bytes: u64, extra: Duration) -> bool {
        ctx.hub.network_bytes.fetch_add(bytes, Ordering::Relaxed);
        ctx.cancel
            .sleep_cancellable(self.link.transfer_time(bytes) + extra)
    }
}
