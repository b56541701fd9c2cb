//! Stateless unary operators: filter and project — batch kernels over
//! selection vectors. Surviving rows are compacted in place and forwarded
//! whole-batch, so the steady state moves allocations downstream instead of
//! creating them.
//!
//! Both operators are layout-preserving over columnar input: a filter with
//! a vectorized predicate shape ([`sip_expr::eval_predicate_mask`]) probes
//! the typed column slices directly and gathers survivors per column; a
//! projection that is pure column selection (`Expr::Col` per output) is a
//! metadata-only [`select_columns`](sip_common::ColumnarBatch::select_columns).
//! Shapes without a columnar kernel (arithmetic, computed projections)
//! convert the batch to rows and take the row path — same results, same
//! error behavior.

use super::driver::{Payload, PushOp};
use super::Emitter;
use crate::context::{ExecContext, Msg};
use crossbeam::channel::Sender;
use sip_common::trace::{OpTracer, Phase};
use sip_common::{Batch, OpId, Result, Row, SelVec};
use sip_expr::{eval_predicate_mask, Expr};
use std::sync::Arc;

/// A `Filter` node.
pub(crate) struct Filter<'a> {
    pred: &'a Expr,
    emitter: Emitter<'a>,
    tr: OpTracer,
    sel: SelVec,
    mask: Vec<bool>,
}

impl<'a> Filter<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        op: OpId,
        pred: &'a Expr,
        out: Sender<Msg>,
    ) -> Self {
        Filter {
            pred,
            emitter: Emitter::new(ctx, op, out).outside_compute(),
            tr: ctx.tracer(op),
            sel: SelVec::default(),
            mask: Vec::new(),
        }
    }
}

impl PushOp for Filter<'_> {
    fn push(&mut self, _input: usize, payload: Payload) -> Result<()> {
        let t0 = self.tr.begin();
        let sel = &mut self.sel;
        sel.clear();
        let payload = match payload {
            Payload::Cols(c) if eval_predicate_mask(self.pred, &c, &mut self.mask) => {
                for (i, &keep) in self.mask.iter().enumerate() {
                    if keep {
                        sel.push(i as u32);
                    }
                }
                Payload::Cols(c)
            }
            // The row fallback for predicate shapes with no columnar kernel.
            other => {
                let b = other.into_rows();
                for (i, row) in b.rows.iter().enumerate() {
                    if self.pred.eval_bool(row)? {
                        sel.push(i as u32);
                    }
                }
                Payload::Batch(b)
            }
        };
        let kept = payload.select(sel);
        self.tr.end(Phase::Compute, t0);
        self.emitter.forward(kept)
    }

    fn hung_up(&self) -> bool {
        self.emitter.cancelled()
    }

    fn close(self) -> Result<()> {
        self.emitter.finish()?;
        self.tr.flush();
        Ok(())
    }
}

/// A `Project` node.
pub(crate) struct Project<'a> {
    exprs: &'a [Expr],
    /// A projection whose every output is a bare column reference is pure
    /// column selection — metadata-only over columnar input.
    selection: Option<Vec<usize>>,
    emitter: Emitter<'a>,
    tr: OpTracer,
}

impl<'a> Project<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        op: OpId,
        exprs: &'a [Expr],
        out: Sender<Msg>,
    ) -> Self {
        let selection = exprs
            .iter()
            .map(|e| match e {
                Expr::Col(c) => Some(*c),
                _ => None,
            })
            .collect();
        Project {
            exprs,
            selection,
            emitter: Emitter::new(ctx, op, out).outside_compute(),
            tr: ctx.tracer(op),
        }
    }

    fn project_rows(&self, rows: &[Row]) -> Result<Vec<Row>> {
        let mut out_rows = Vec::with_capacity(rows.len());
        for row in rows {
            let mut vals = Vec::with_capacity(self.exprs.len());
            for e in self.exprs {
                vals.push(e.eval(row)?);
            }
            out_rows.push(Row::new(vals));
        }
        Ok(out_rows)
    }
}

impl PushOp for Project<'_> {
    fn push(&mut self, _input: usize, payload: Payload) -> Result<()> {
        let t0 = self.tr.begin();
        match (payload, &self.selection) {
            (Payload::Cols(c), Some(cols)) => {
                let projected = Payload::Cols(c.select_columns(cols));
                self.tr.end(Phase::Compute, t0);
                self.emitter.forward(projected)
            }
            (payload, _) => {
                let rows = self.project_rows(&payload.into_rows().rows)?;
                self.tr.end(Phase::Compute, t0);
                self.emitter.forward(Payload::Batch(Batch::new(rows)))
            }
        }
    }

    fn hung_up(&self) -> bool {
        self.emitter.cancelled()
    }

    fn close(self) -> Result<()> {
        self.emitter.finish()?;
        self.tr.flush();
        Ok(())
    }
}
