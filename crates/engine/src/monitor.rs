//! The runtime-monitoring interface AIP controllers plug into.
//!
//! The engine is deliberately ignorant of AIP policy: it exposes exactly the
//! hooks §V says Tukwila provides — cardinality counters (via
//! [`crate::metrics::MetricsHub`]), standardized intermediate-state
//! structures exposed "to the execution engine for use in AIP"
//! ([`StateView`]), on-the-fly semijoin registration
//! ([`crate::taps::FilterTap`]), and completion notifications. The
//! feed-forward and cost-based algorithms in `sip-core` are pure consumers
//! of this interface. Runtime cardinalities reach them through the live
//! counters, read when a stateful input completes (`UPDATEESTIMATES`).

use crate::context::ExecContext;
use crate::metrics::ExecMetrics;
use sip_common::{AttrId, DigestBuffer, OpId, Row};
use std::sync::Arc;

/// Read-only view over the buffered state a stateful operator holds for one
/// input: a join side's hash table, an aggregate's group keys, a distinct
/// set, or a semijoin build set.
pub trait StateView {
    /// The attribute at each position of the rows yielded by [`StateView::for_each`].
    fn layout(&self) -> &[AttrId];
    /// Number of buffered rows (groups for aggregates).
    fn len(&self) -> usize;
    /// True when no rows are buffered.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Approximate buffered bytes.
    fn state_bytes(&self) -> usize;
    /// `true` when the state covers the *entire* input — `false` when the
    /// pipelined-hash-join short-circuit stopped buffering early, in which
    /// case the state must not be used as an AIP set (it would cause false
    /// negatives).
    fn complete(&self) -> bool;
    /// Visit every buffered row.
    fn for_each(&self, f: &mut dyn FnMut(&Row));
    /// Exact distinct-key count for the single column at `pos`, when the
    /// operator's hash structure already maintains it (a join side keyed by
    /// exactly that column, an aggregate's single group key, a distinct over
    /// one column). `None` = unknown; callers fall back to estimates.
    fn distinct_hint(&self, _pos: usize) -> Option<usize> {
        None
    }
}

/// Notification that a stateful operator's input has fully arrived.
pub struct CompletionEvent<'a> {
    /// The stateful operator.
    pub op: OpId,
    /// Which input completed (0 or 1).
    pub input: usize,
    /// Rows that arrived on this input.
    pub rows_in: u64,
    /// The operator's buffered state for that input.
    pub view: &'a dyn StateView,
}

/// Per-input row observer — the feed-forward algorithm's incrementally
/// built "working copy" AIP set (§IV-A) implements this.
pub trait RowCollector: Send {
    /// Called for every row admitted into the host operator's input.
    fn admit(&mut self, row: &Row);
    /// Batch admit: every row of `rows` at once, with the digest pass the
    /// host operator already paid for its own keys. `key_positions` names
    /// the columns `digests` was computed over (the operator's group /
    /// join / build key columns); a collector whose source column set
    /// matches reuses the buffer outright, so the common AIP case — the
    /// working set summarizes exactly the key the operator hashes — costs
    /// **zero** additional hashes and zero key materialization.
    ///
    /// Must be observationally identical to calling
    /// [`RowCollector::admit`] on each row in order; the default does
    /// exactly that.
    fn admit_batch(&mut self, rows: &[Row], _key_positions: &[usize], _digests: &DigestBuffer) {
        for row in rows {
            self.admit(row);
        }
    }
    /// Called exactly once when the input reaches EOF.
    fn finish(&mut self, ctx: &Arc<ExecContext>);
}

/// Callbacks from the executing engine. All methods run synchronously on
/// operator threads; long work here genuinely delays the query, exactly as
/// AIP-set construction does in the paper's measurements.
pub trait ExecMonitor: Send + Sync {
    /// The plan is wired and about to start. Controllers install collectors
    /// and pre-register candidate sets here.
    fn on_query_start(&self, _ctx: &Arc<ExecContext>) {}
    /// A stateful operator's input completed; `ev.view` is valid only for
    /// the duration of the call.
    fn on_input_complete(&self, _ctx: &Arc<ExecContext>, _ev: &CompletionEvent<'_>) {}
    /// The run's metrics were frozen: every operator thread has joined and
    /// the `sip-trace` thread traces are merged into `metrics` (per-op
    /// phase breakdowns, span events, filter lifecycle). Runs right before
    /// [`ExecMonitor::on_query_end`] — the span-event sink for harnesses
    /// that assert on trace contents.
    fn on_trace(&self, _ctx: &Arc<ExecContext>, _metrics: &ExecMetrics) {}
    /// The root has emitted EOF.
    fn on_query_end(&self, _ctx: &Arc<ExecContext>) {}
}

/// A monitor that does nothing — baseline execution.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopMonitor;

impl ExecMonitor for NoopMonitor {}

/// A [`StateView`] over a plain row slice (used by operators whose state is
/// directly a row collection, and by tests).
pub struct SliceStateView<'a> {
    layout: &'a [AttrId],
    rows: &'a [Row],
    bytes: usize,
    complete: bool,
}

impl<'a> SliceStateView<'a> {
    /// Wrap a slice.
    pub fn new(layout: &'a [AttrId], rows: &'a [Row], bytes: usize, complete: bool) -> Self {
        SliceStateView {
            layout,
            rows,
            bytes,
            complete,
        }
    }
}

impl StateView for SliceStateView<'_> {
    fn layout(&self) -> &[AttrId] {
        self.layout
    }
    fn len(&self) -> usize {
        self.rows.len()
    }
    fn state_bytes(&self) -> usize {
        self.bytes
    }
    fn complete(&self) -> bool {
        self.complete
    }
    fn for_each(&self, f: &mut dyn FnMut(&Row)) {
        for r in self.rows {
            f(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_common::Value;

    #[test]
    fn slice_view_reports_contents() {
        let layout = [AttrId(3), AttrId(4)];
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::Int(2)]),
            Row::new(vec![Value::Int(3), Value::Int(4)]),
        ];
        let v = SliceStateView::new(&layout, &rows, 64, true);
        assert_eq!(v.len(), 2);
        assert_eq!(v.layout(), &layout);
        assert!(v.complete());
        assert_eq!(v.state_bytes(), 64);
        let mut seen = 0;
        v.for_each(&mut |_r| seen += 1);
        assert_eq!(seen, 2);
    }
}
