//! Pipelined semijoin — the operator the magic-sets baseline injects.
//!
//! The probe input (0) is reduced to the rows whose key appears in the build
//! input (1). To stay fully pipelined (the paper's magic implementation
//! "performs full pipelining when computing the filter set"), probe rows
//! matching the partial build set are emitted immediately — matches only
//! ever grow — and unmatched probe rows are buffered. When the build side
//! completes, buffered rows are re-checked once and the rest discarded.
//!
//! Both inputs are hashed with one digest pass per batch; probe-side
//! membership checks compare key values positionally against the stored
//! build keys, so the probe path never materializes a key vector.

use super::driver::{Payload, PushOp};
use super::{Emitter, Stateful};
use crate::context::{ExecContext, Msg};
use crate::monitor::{ExecMonitor, StateView};
use crossbeam::channel::Sender;
use sip_common::trace::Phase;
use sip_common::{AttrId, DigestBuffer, FxHashMap, OpId, Result, Row, Value};
use std::sync::Arc;

#[derive(Default)]
struct BuildSet {
    /// digest → distinct key values (exact re-check on probe).
    keys: FxHashMap<u64, Vec<Vec<Value>>>,
    bytes: usize,
    n_keys: usize,
}

impl BuildSet {
    fn insert(&mut self, digest: u64, key: Vec<Value>) -> i64 {
        let bucket = self.keys.entry(digest).or_default();
        if bucket.iter().any(|k| k == &key) {
            return 0;
        }
        let delta = key.iter().map(Value::size_bytes).sum::<usize>() as i64 + 24;
        self.bytes += delta as usize;
        self.n_keys += 1;
        bucket.push(key);
        delta
    }

    /// Does the set contain `row`'s key at `positions`? Positional compare
    /// against the stored key values — no clone, no re-hash.
    fn contains_row(&self, digest: u64, row: &Row, positions: &[usize]) -> bool {
        self.keys
            .get(&digest)
            .map(|b| {
                b.iter().any(|k| {
                    k.len() == positions.len()
                        && k.iter()
                            .zip(positions.iter())
                            .all(|(v, &p)| v == row.get(p))
                })
            })
            .unwrap_or(false)
    }
}

/// A `SemiJoin` node: input 0 probes, input 1 builds.
pub(crate) struct SemiJoin<'a> {
    s: Stateful<'a>,
    probe_keys: &'a [usize],
    build_keys: &'a [usize],
    /// The attributes of the build keys: the rows the completed build set
    /// yields as a state view.
    build_key_layout: Vec<AttrId>,
    build: BuildSet,
    /// Unmatched probe rows waiting for the build side: digest → rows.
    pending: FxHashMap<u64, Vec<Row>>,
    pending_bytes: usize,
    build_done: bool,
    /// Reused per-batch digest scratch, one per input (key column sets
    /// differ).
    build_digests: DigestBuffer,
    probe_digests: DigestBuffer,
}

impl<'a> SemiJoin<'a> {
    pub(crate) fn new(
        ctx: &'a Arc<ExecContext>,
        monitor: &'a dyn ExecMonitor,
        op: OpId,
        probe_keys: &'a [usize],
        build_keys: &'a [usize],
        out: Sender<Msg>,
    ) -> Self {
        let build_child = ctx.plan.node(op).inputs[1];
        SemiJoin {
            s: Stateful::new(ctx, monitor, op, Emitter::new(ctx, op, out)),
            probe_keys,
            build_keys,
            build_key_layout: build_keys
                .iter()
                .map(|&p| ctx.plan.node(build_child).layout[p])
                .collect(),
            build: BuildSet::default(),
            pending: FxHashMap::default(),
            pending_bytes: 0,
            build_done: false,
            build_digests: DigestBuffer::default(),
            probe_digests: DigestBuffer::default(),
        }
    }
}

impl PushOp for SemiJoin<'_> {
    fn push(&mut self, input: usize, payload: Payload) -> Result<()> {
        // Both the build set and the pending buffer are row-shaped;
        // columnar input converts to rows at this seam.
        let batch = payload.into_rows();
        let s = &mut self.s;
        let (probe_keys, build_keys) = (self.probe_keys, self.build_keys);
        if input == 1 {
            let digests = &mut self.build_digests;
            s.digest(1, digests, &batch.rows, build_keys);
            let t_ins = s.tr.begin();
            for (i, row) in batch.rows.iter().enumerate() {
                if digests.is_null_key(i) {
                    continue;
                }
                let digest = digests.digests()[i];
                let delta = self.build.insert(digest, row.key_values(build_keys));
                if delta > 0 {
                    s.add_state(delta);
                    // Release any pending probe rows now matched.
                    if let Some(rows) = self.pending.remove(&digest) {
                        for r in rows {
                            if self.build.contains_row(digest, &r, probe_keys) {
                                self.pending_bytes -= r.size_bytes() + 16;
                                s.add_state(-(r.size_bytes() as i64 + 16));
                                s.emitter.push(r)?;
                            } else {
                                // Same digest, different key: keep waiting.
                                self.pending.entry(digest).or_default().push(r);
                            }
                        }
                    }
                }
            }
            s.tr.add(Phase::Compute, t_ins);
        } else {
            let digests = &mut self.probe_digests;
            s.digest(0, digests, &batch.rows, probe_keys);
            let t_probe = s.tr.begin();
            for (i, row) in batch.rows.into_iter().enumerate() {
                if digests.is_null_key(i) {
                    continue; // NULL keys never match
                }
                let digest = digests.digests()[i];
                if self.build.contains_row(digest, &row, probe_keys) {
                    s.emitter.push(row)?;
                } else if !self.build_done {
                    let delta = row.size_bytes() + 16;
                    self.pending_bytes += delta;
                    s.add_state(delta as i64);
                    self.pending.entry(digest).or_default().push(row);
                }
                // build done and no match: drop.
            }
            s.tr.add(Phase::Compute, t_probe);
        }
        s.emitter.flush()
    }

    fn input_done(&mut self, input: usize) -> Result<()> {
        if input == 0 {
            self.s.finish_collector(0);
            return Ok(());
        }
        self.build_done = true;
        self.s.finish_collector(1);
        // Surface the completed build set (it is itself an AIP candidate: a
        // completed, keyed subexpression).
        self.s.report(1, self);
        // Resolve pending: emit late matches, discard the rest.
        let drained = std::mem::take(&mut self.pending);
        for (digest, rows) in drained {
            for r in rows {
                self.s.add_state(-(r.size_bytes() as i64 + 16));
                if self.build.contains_row(digest, &r, self.probe_keys) {
                    self.s.emitter.push(r)?;
                }
            }
        }
        self.pending_bytes = 0;
        self.s.emitter.flush()
    }

    fn hung_up(&self) -> bool {
        self.s.emitter.cancelled()
    }

    fn close(self) -> Result<()> {
        // Release the build set, and any probe rows still pending when the
        // downstream hung up before the build side finished.
        self.s.close(self.build.bytes + self.pending_bytes)
    }
}

/// The completed build set, as the controller sees it: one row per
/// distinct build key.
impl StateView for SemiJoin<'_> {
    fn layout(&self) -> &[AttrId] {
        &self.build_key_layout
    }
    fn len(&self) -> usize {
        self.build.n_keys
    }
    fn state_bytes(&self) -> usize {
        self.build.bytes
    }
    fn complete(&self) -> bool {
        true
    }
    fn for_each(&self, f: &mut dyn FnMut(&Row)) {
        for k in self.build.keys.values().flatten() {
            f(&Row::new(k.clone()));
        }
    }
    fn distinct_hint(&self, pos: usize) -> Option<usize> {
        (self.build_key_layout.len() == 1 && pos == 0).then_some(self.build.n_keys)
    }
}
