//! Hash aggregation (blocking) and pipelined distinct.
//!
//! Both are "state-producing operators" in the paper's sense: their hash
//! tables hold a completed subexpression once their input finishes, which is
//! exactly the state AIP summarizes (Examples 3.1/3.2 build AIP sets from
//! the PARTKEY state of aggregation and distinct operators).
//!
//! Group keys (and, for distinct, whole rows) are hashed with one digest
//! pass per batch; the group probe compares values positionally, so the
//! per-row path neither re-hashes nor clones a key.

use super::driver::{Payload, PushOp};
use super::{Emitter, Stateful};
use crate::context::{ExecContext, Msg};
use crate::monitor::{ExecMonitor, StateView};
use crate::physical::BoundAgg;
use crossbeam::channel::Sender;
use sip_common::trace::Phase;
use sip_common::{AttrId, DigestBuffer, FxHashMap, OpId, Result, Row};
use sip_expr::AggAccumulator;
use std::sync::Arc;

struct Group {
    key: Row,
    accs: Vec<AggAccumulator>,
}

/// An `Aggregate` node: blocking — groups build until the input's `Eof`,
/// then every group is emitted.
pub(crate) struct Aggregate<'a> {
    s: Stateful<'a>,
    group_cols: &'a [usize],
    aggs: &'a [BoundAgg],
    groups: FxHashMap<u64, Vec<Group>>,
    bytes: usize,
    digests: DigestBuffer,
}

impl<'a> Aggregate<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        monitor: &'a dyn ExecMonitor,
        op: OpId,
        group_cols: &'a [usize],
        aggs: &'a [BoundAgg],
        out: Sender<Msg>,
    ) -> Self {
        // Emission runs after the build, outside any Compute span, so
        // auto-flush time must not be marked nested.
        let emitter = Emitter::new(ctx, op, out).outside_compute();
        Aggregate {
            s: Stateful::new(ctx, monitor, op, emitter),
            group_cols,
            aggs,
            groups: FxHashMap::default(),
            bytes: 0,
            digests: DigestBuffer::default(),
        }
    }
}

impl PushOp for Aggregate<'_> {
    fn push(&mut self, _input: usize, payload: Payload) -> Result<()> {
        let batch = payload.into_rows();
        let (group_cols, aggs, s) = (self.group_cols, self.aggs, &mut self.s);
        s.digest(0, &mut self.digests, &batch.rows, group_cols);
        let t_upd = s.tr.begin();
        for (i, row) in batch.rows.iter().enumerate() {
            if self.digests.is_null_key(i) {
                continue; // NULL group keys are skipped (workloads are NULL-free)
            }
            let bucket = self.groups.entry(self.digests.digests()[i]).or_default();
            let existing = bucket.iter_mut().find(|g| {
                group_cols
                    .iter()
                    .enumerate()
                    .all(|(j, &p)| g.key.get(j) == row.get(p))
            });
            let group = match existing {
                Some(g) => g,
                None => {
                    let key = row.project(group_cols);
                    let accs: Vec<AggAccumulator> =
                        aggs.iter().map(|a| a.func.accumulator()).collect();
                    let delta =
                        key.size_bytes() + accs.iter().map(|a| a.size_bytes()).sum::<usize>() + 16;
                    self.bytes += delta;
                    s.add_state(delta as i64);
                    bucket.push(Group { key, accs });
                    bucket.last_mut().unwrap()
                }
            };
            for (acc, spec) in group.accs.iter_mut().zip(aggs.iter()) {
                acc.update(&spec.input.eval(row)?)?;
            }
        }
        s.tr.add(Phase::Compute, t_upd);
        Ok(())
    }

    fn input_done(&mut self, _input: usize) -> Result<()> {
        // The subexpression below this aggregate is now fully computed; its
        // group keys are a candidate AIP set (Example 3.2).
        self.s.finish_collector(0);
        self.s.report(0, self);
        for bucket in self.groups.values() {
            for g in bucket {
                let mut vals: Vec<sip_common::Value> = g.key.values().to_vec();
                for acc in &g.accs {
                    vals.push(acc.finish());
                }
                self.s.emitter.push(Row::new(vals))?;
            }
        }
        Ok(())
    }

    fn hung_up(&self) -> bool {
        self.s.emitter.cancelled()
    }

    fn close(self) -> Result<()> {
        self.s.close(self.bytes)
    }
}

/// The completed groups, as the controller sees them: one row per group
/// key.
impl StateView for Aggregate<'_> {
    fn layout(&self) -> &[AttrId] {
        // The group keys' attribute layout = the first |group_cols| output
        // attrs.
        &self.s.ctx.plan.node(self.s.op).layout[..self.group_cols.len()]
    }
    fn len(&self) -> usize {
        self.groups.values().map(Vec::len).sum()
    }
    fn state_bytes(&self) -> usize {
        self.bytes
    }
    fn complete(&self) -> bool {
        true
    }
    fn for_each(&self, f: &mut dyn FnMut(&Row)) {
        for gs in self.groups.values() {
            for g in gs {
                f(&g.key);
            }
        }
    }
    fn distinct_hint(&self, pos: usize) -> Option<usize> {
        // Rows yielded are the group keys; with a single group column the
        // group count is its exact distinct count.
        (self.group_cols.len() == 1 && pos == 0).then(|| self.len())
    }
}

/// A `Distinct` node — pipelined: first occurrences are emitted
/// immediately (§III's running example reads the distinct operator's state
/// while the query continues). Rows are hashed once per batch (over all
/// columns) and deduplicated by digest bucket + exact compare.
pub(crate) struct Distinct<'a> {
    s: Stateful<'a>,
    all_cols: Vec<usize>,
    seen: FxHashMap<u64, Vec<Row>>,
    n_rows: usize,
    bytes: usize,
    digests: DigestBuffer,
}

impl<'a> Distinct<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        monitor: &'a dyn ExecMonitor,
        op: OpId,
        out: Sender<Msg>,
    ) -> Self {
        Distinct {
            s: Stateful::new(ctx, monitor, op, Emitter::new(ctx, op, out)),
            all_cols: (0..ctx.plan.node(op).layout.len()).collect(),
            seen: FxHashMap::default(),
            n_rows: 0,
            bytes: 0,
            digests: DigestBuffer::default(),
        }
    }
}

impl PushOp for Distinct<'_> {
    fn push(&mut self, _input: usize, payload: Payload) -> Result<()> {
        let batch = payload.into_rows();
        let s = &mut self.s;
        s.digest(0, &mut self.digests, &batch.rows, &self.all_cols);
        let t_dedup = s.tr.begin();
        for (i, row) in batch.rows.into_iter().enumerate() {
            let bucket = self.seen.entry(self.digests.digests()[i]).or_default();
            if !bucket.iter().any(|r| r == &row) {
                let delta = row.size_bytes() + 16;
                self.bytes += delta;
                self.n_rows += 1;
                s.add_state(delta as i64);
                bucket.push(row.clone());
                s.emitter.push(row)?;
            }
        }
        s.tr.add(Phase::Compute, t_dedup);
        s.emitter.flush()
    }

    fn input_done(&mut self, _input: usize) -> Result<()> {
        self.s.finish_collector(0);
        self.s.report(0, self);
        Ok(())
    }

    fn hung_up(&self) -> bool {
        self.s.emitter.cancelled()
    }

    fn close(self) -> Result<()> {
        self.s.close(self.bytes)
    }
}

impl StateView for Distinct<'_> {
    fn layout(&self) -> &[AttrId] {
        &self.s.ctx.plan.node(self.s.op).layout
    }
    fn len(&self) -> usize {
        self.n_rows
    }
    fn state_bytes(&self) -> usize {
        self.bytes
    }
    fn complete(&self) -> bool {
        true
    }
    fn for_each(&self, f: &mut dyn FnMut(&Row)) {
        for rows in self.seen.values() {
            for r in rows {
                f(r);
            }
        }
    }
    fn distinct_hint(&self, pos: usize) -> Option<usize> {
        (self.all_cols.len() == 1 && pos == 0).then_some(self.n_rows)
    }
}
