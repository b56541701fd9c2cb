//! The symmetric (doubly-pipelined) hash join — the workhorse of push-style
//! query processing (§I, [10], [11]).
//!
//! Each arriving tuple is inserted into its side's hash table and probed
//! against the opposite table, so results stream out as soon as both
//! matching tuples have arrived, regardless of input order or delays.
//! Arriving batches are hashed in **one pass** over the side's key columns
//! ([`DigestBuffer`]); the probe re-checks exact key equality positionally
//! against the buffered rows, so no per-row key vector is ever materialized.
//!
//! Implements the short-circuit optimization §VI-A describes: "if one of the
//! join inputs completes, the other input 'short-circuits' and stops
//! buffering input that will not be needed later" — when side X reaches
//! EOF, no future X-tuple will ever probe the opposite table, so the
//! opposite table is dropped and arriving tuples on that side become
//! probe-only.

use super::driver::{Payload, PushOp};
use super::{Emitter, Stateful};
use crate::context::{ExecContext, Msg};
use crate::monitor::{ExecMonitor, StateView};
use crossbeam::channel::Sender;
use sip_common::trace::Phase;
use sip_common::{AttrId, DigestBuffer, FxHashMap, OpId, Result, Row};
use sip_expr::Expr;
use std::sync::Arc;

/// One side's buffered state.
struct Side<'a> {
    /// The attributes of the buffered rows.
    layout: &'a [AttrId],
    keys: Vec<usize>,
    table: FxHashMap<u64, Vec<Row>>,
    bytes: usize,
    /// Set when the opposite side finished first and this table was dropped.
    dropped: bool,
}

impl<'a> Side<'a> {
    fn new(layout: &'a [AttrId], keys: Vec<usize>) -> Self {
        Side {
            layout,
            keys,
            table: FxHashMap::default(),
            bytes: 0,
            dropped: false,
        }
    }

    fn insert(&mut self, digest: u64, row: Row) -> i64 {
        let delta = row.size_bytes() as i64 + 16;
        self.bytes += delta as usize;
        self.table.entry(digest).or_default().push(row);
        delta
    }

    /// Matching buffered rows for a probe row (hash bucket + positional
    /// exact key re-check, so 64-bit collisions cannot produce wrong joins
    /// and no key vector is cloned).
    fn probe<'p>(
        &'p self,
        digest: u64,
        probe: &'p Row,
        probe_keys: &'p [usize],
    ) -> impl Iterator<Item = &'p Row> + 'p {
        self.table
            .get(&digest)
            .into_iter()
            .flatten()
            .filter(move |r| {
                self.keys
                    .iter()
                    .zip(probe_keys.iter())
                    .all(|(&bp, &pp)| r.get(bp) == probe.get(pp))
            })
    }

    fn release(&mut self) -> i64 {
        let freed = self.bytes as i64;
        self.table = FxHashMap::default();
        self.bytes = 0;
        -freed
    }
}

impl StateView for Side<'_> {
    fn layout(&self) -> &[AttrId] {
        self.layout
    }
    fn len(&self) -> usize {
        self.table.values().map(Vec::len).sum()
    }
    fn state_bytes(&self) -> usize {
        self.bytes
    }
    fn complete(&self) -> bool {
        !self.dropped
    }
    fn for_each(&self, f: &mut dyn FnMut(&Row)) {
        for rows in self.table.values() {
            for r in rows {
                f(r);
            }
        }
    }
    fn distinct_hint(&self, pos: usize) -> Option<usize> {
        // The table is bucketed by the side's join-key digest; the bucket
        // count is the distinct count exactly when the probe column IS the
        // (single) join key.
        (self.keys.as_slice() == [pos]).then_some(self.table.len())
    }
}

/// A `HashJoin` node.
pub(crate) struct HashJoin<'a> {
    s: Stateful<'a>,
    residual: &'a Option<Expr>,
    sides: [Side<'a>; 2],
    /// One digest pass per arriving batch; the buffer is reused across
    /// batches from either side.
    digests: DigestBuffer,
}

impl<'a> HashJoin<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        monitor: &'a dyn ExecMonitor,
        op: OpId,
        keys: [&[usize]; 2],
        residual: &'a Option<Expr>,
        out: Sender<Msg>,
    ) -> Self {
        let inputs = &ctx.plan.node(op).inputs;
        HashJoin {
            s: Stateful::new(ctx, monitor, op, Emitter::new(ctx, op, out)),
            residual,
            sides: [0, 1].map(|i| Side::new(&ctx.plan.node(inputs[i]).layout, keys[i].to_vec())),
            digests: DigestBuffer::default(),
        }
    }
}

impl PushOp for HashJoin<'_> {
    fn push(&mut self, idx: usize, payload: Payload) -> Result<()> {
        // Join state is row-shaped (buckets of buffered rows); columnar
        // input converts to rows at this seam.
        let batch = payload.into_rows();
        let (sides, s) = (&mut self.sides, &mut self.s);
        // Both sides hash the same key-value sequence, so this side's
        // digest doubles as the probe digest into the opposite table — and
        // as the collector's build digest.
        let keys = &sides[idx].keys;
        s.digest(idx, &mut self.digests, &batch.rows, keys);
        let t_probe = s.tr.begin();
        let other = 1 - idx;
        for (i, row) in batch.rows.into_iter().enumerate() {
            if self.digests.is_null_key(i) {
                continue; // NULL keys never join
            }
            let digest = self.digests.digests()[i];
            let probe_keys: &[usize] = &sides[idx].keys;
            for m in sides[other].probe(digest, &row, probe_keys) {
                let joined = if idx == 0 {
                    row.concat(m)
                } else {
                    m.concat(&row)
                };
                match self.residual {
                    Some(pred) if !pred.eval_bool(&joined)? => {}
                    _ => s.emitter.push(joined)?,
                }
            }
            // Buffer for future arrivals from the other side (unless
            // short-circuited).
            if !sides[idx].dropped {
                s.add_state(sides[idx].insert(digest, row));
            }
        }
        // Same logical span as the digest pass (one Compute span per batch;
        // auto-flush time inside the loop is nested).
        s.tr.add(Phase::Compute, t_probe);
        s.emitter.flush()
    }

    fn input_done(&mut self, idx: usize) -> Result<()> {
        // Notify the controller while this side's state is intact.
        self.s.finish_collector(idx);
        self.s.report(idx, &self.sides[idx]);
        // Short-circuit: the opposite table will never be probed again;
        // release it and stop building it.
        let other = &mut self.sides[1 - idx];
        if !other.dropped {
            self.s.add_state(other.release());
            other.dropped = true;
        }
        Ok(())
    }

    fn hung_up(&self) -> bool {
        self.s.emitter.cancelled()
    }

    fn close(self) -> Result<()> {
        // Release any remaining state before EOF so peak accounting closes
        // out.
        let held = self.sides.iter().map(|side| side.bytes).sum();
        self.s.close(held)
    }
}
