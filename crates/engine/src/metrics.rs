//! Per-operator and per-query metrics.
//!
//! Tukwila "supplement\[s\] all query operators with cardinality counters"
//! (§V-A); those counters are what the cost-based AIP manager's
//! `UPDATEESTIMATES` reads at runtime. State bytes feed both per-operator
//! peaks and the global [`StateTracker`] whose high-water mark is the
//! paper's "Intermediate State (MB)" metric.
//!
//! Timing comes from the `sip-trace` layer ([`sip_common::trace`]): every
//! operator thread accumulates phase spans in a thread-local
//! [`sip_common::OpTracer`] and hands them to the hub's [`TraceHub`] once
//! at finish; [`MetricsHub::finish`] merges them into the per-operator
//! snapshots. Routing counts travel the same path — there is no longer any
//! `Mutex` merge on the operator side.

use sip_common::bytes::StateTracker;
use sip_common::trace::{FilterEvent, SpanEvent, TraceHub, TraceLevel, N_PHASES};
use sip_common::{OpId, Phase};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Live counters for one operator. All relaxed atomics — they are
/// monotonically-increasing counters, not synchronization.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Rows received per input (index 0/1).
    pub rows_in: [AtomicU64; 2],
    /// Batches received across inputs (what Compute span counts are
    /// checked against in the profile tests).
    pub batches_in: AtomicU64,
    /// Rows emitted.
    pub rows_out: AtomicU64,
    /// Rows probed against injected AIP filters at this node's output.
    pub aip_probed: AtomicU64,
    /// Rows dropped by injected AIP filters.
    pub aip_dropped: AtomicU64,
    /// Current buffered state bytes.
    pub state_bytes: AtomicI64,
    /// Peak buffered state bytes for this operator.
    pub state_peak: AtomicU64,
    /// Input EOF flags.
    pub input_done: [AtomicBool; 2],
    /// Set once the operator has emitted its own EOF.
    pub finished: AtomicBool,
}

impl OpMetrics {
    /// Record state growth/shrink, updating the per-op peak and the global
    /// tracker.
    pub fn add_state(&self, delta: i64, global: &StateTracker) {
        let now = self.state_bytes.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 {
            let now_u = now.max(0) as u64;
            let mut seen = self.state_peak.load(Ordering::Relaxed);
            while now_u > seen {
                match self.state_peak.compare_exchange_weak(
                    seen,
                    now_u,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(cur) => seen = cur,
                }
            }
        }
        global.add(delta);
    }

    /// Snapshot the atomic counters. Trace-derived fields (phases, routing,
    /// occupancy) are zero here — [`MetricsHub::finish`] overlays them from
    /// the merged thread traces.
    pub fn snapshot(&self, op: OpId) -> OpMetricsSnapshot {
        OpMetricsSnapshot {
            op,
            rows_in: [
                self.rows_in[0].load(Ordering::Relaxed),
                self.rows_in[1].load(Ordering::Relaxed),
            ],
            batches_in: self.batches_in.load(Ordering::Relaxed),
            rows_out: self.rows_out.load(Ordering::Relaxed),
            aip_probed: self.aip_probed.load(Ordering::Relaxed),
            aip_dropped: self.aip_dropped.load(Ordering::Relaxed),
            state_peak: self.state_peak.load(Ordering::Relaxed),
            phase_nanos: [0; N_PHASES],
            phase_counts: [0; N_PHASES],
            routed: Vec::new(),
            occupancy_sum: 0,
            occupancy_samples: 0,
        }
    }
}

/// Frozen per-operator counters.
#[derive(Clone, Debug)]
pub struct OpMetricsSnapshot {
    /// Operator id.
    pub op: OpId,
    /// Rows received per input.
    pub rows_in: [u64; 2],
    /// Batches received across inputs.
    pub batches_in: u64,
    /// Rows emitted.
    pub rows_out: u64,
    /// AIP probes at this operator.
    pub aip_probed: u64,
    /// AIP drops at this operator.
    pub aip_dropped: u64,
    /// Peak buffered bytes.
    pub state_peak: u64,
    /// Nanoseconds attributed per [`Phase`] (zero with tracing off). The
    /// `Compute` slot already has nested emitter-flush time subtracted, so
    /// the phases partition the operator's busy time.
    pub phase_nanos: [u64; N_PHASES],
    /// Spans recorded per [`Phase`].
    pub phase_counts: [u64; N_PHASES],
    /// Rows routed per destination partition (routing operators only;
    /// empty elsewhere).
    pub routed: Vec<u64>,
    /// Sum of sampled downstream-channel queue lengths at send time.
    pub occupancy_sum: u64,
    /// Number of occupancy samples.
    pub occupancy_samples: u64,
}

impl OpMetricsSnapshot {
    /// Total attributed busy nanoseconds (sum over phases).
    pub fn busy_nanos(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }

    /// Nanoseconds attributed to one phase.
    pub fn phase(&self, p: Phase) -> u64 {
        self.phase_nanos[p as usize]
    }

    /// Mean sampled occupancy of this operator's downstream channel, or
    /// `None` when nothing was sampled.
    pub fn occupancy_mean(&self) -> Option<f64> {
        if self.occupancy_samples == 0 {
            None
        } else {
            Some(self.occupancy_sum as f64 / self.occupancy_samples as f64)
        }
    }
}

/// ROI of one injected AIP filter at query end: probe/drop counters from
/// the live filter plus the working set's size. Collected from the taps
/// when metrics are frozen.
#[derive(Clone, Debug)]
pub struct FilterStat {
    /// The operator the filter was injected at.
    pub site: OpId,
    /// Filter label (producer attribute).
    pub label: String,
    /// Rows probed against this filter.
    pub probed: u64,
    /// Rows it dropped.
    pub dropped: u64,
    /// Keys in the working set.
    pub keys: u64,
    /// Footprint in bytes.
    pub bytes: u64,
}

/// Whole-query result metrics.
#[derive(Clone, Debug)]
pub struct ExecMetrics {
    /// Wall-clock execution time.
    pub wall_time: Duration,
    /// Exact peak of summed intermediate state (bytes).
    pub peak_state_bytes: u64,
    /// Intermediate-state bytes still held when the query finished (should
    /// be zero: every operator must release what it buffered).
    pub final_state_bytes: u64,
    /// Per-operator snapshots, indexed by operator id.
    pub per_op: Vec<OpMetricsSnapshot>,
    /// Rows the root produced.
    pub rows_out: u64,
    /// Total rows dropped by AIP filters anywhere in the plan.
    pub aip_dropped_total: u64,
    /// Number of AIP filters injected during the run.
    pub filters_injected: u64,
    /// Simulated bytes shipped between sites (0 for local queries).
    pub network_bytes: u64,
    /// Operators whose nested emitter-flush time exceeded their `Compute`
    /// total at merge time. The subtraction clamps to zero instead of
    /// going negative, but a nonzero count means the one-Compute-span-
    /// per-batch attribution invariant broke somewhere and that operator's
    /// phase breakdown under-reports compute; surfaced in the query
    /// profile so it cannot clamp silently.
    pub attribution_underflow: u64,
    /// The trace level the run recorded at.
    pub trace_level: TraceLevel,
    /// Individual span events ([`TraceLevel::Spans`] only), merged and
    /// deterministically ordered.
    pub spans: Vec<SpanEvent>,
    /// AIP filter lifecycle events (built/scoped/OR-merged/shipped).
    pub filter_events: Vec<FilterEvent>,
    /// Per-filter ROI at query end (probed/dropped/footprint).
    pub filter_stats: Vec<FilterStat>,
    /// True when the run was cancelled (first failure, deadline, or an
    /// explicit cancel): the counters are a coherent snapshot of the work
    /// done *before* teardown, not a complete accounting of the query.
    pub cancelled: bool,
    /// True when the result was produced *through* recovery — a
    /// whole-run retry healed at least one failure on the way to this
    /// (byte-identical) result.
    pub recovered: bool,
    /// Run-level attempts spent producing this result (1 = first try).
    pub attempts: u32,
    /// Threads this run spawned (operators plus the progress watchdog).
    pub threads_spawned: u64,
    /// Threads of this run still inside their bodies when it returned.
    /// Every thread is joined before a run returns, so anything but 0 is
    /// a leak.
    pub threads_live_at_end: u64,
}

impl ExecMetrics {
    /// Peak state in MB (the paper's y-axis).
    pub fn peak_state_mb(&self) -> f64 {
        self.peak_state_bytes as f64 / (1024.0 * 1024.0)
    }

    /// Whole-plan nanoseconds per phase (sum over operators).
    pub fn phase_totals(&self) -> [u64; N_PHASES] {
        let mut totals = [0u64; N_PHASES];
        for m in &self.per_op {
            for (t, &n) in totals.iter_mut().zip(m.phase_nanos.iter()) {
                *t += n;
            }
        }
        totals
    }

    /// Roll the per-operator counters of a partition-parallel run up to one
    /// row per worker partition (serial-section operators are excluded).
    pub fn per_partition(&self, map: &crate::context::PartitionMap) -> Vec<PartitionSnapshot> {
        let mut out: Vec<PartitionSnapshot> = (0..map.dop)
            .map(|p| PartitionSnapshot {
                partition: p,
                rows_out: 0,
                aip_probed: 0,
                aip_dropped: 0,
                state_peak: 0,
                rows_routed_in: 0,
                phase_nanos: [0; N_PHASES],
            })
            .collect();
        for m in &self.per_op {
            if let Some(p) = map.partition(m.op) {
                let s = &mut out[p as usize];
                s.rows_out += m.rows_out;
                s.aip_probed += m.aip_probed;
                s.aip_dropped += m.aip_dropped;
                s.state_peak += m.state_peak;
                for (t, &n) in s.phase_nanos.iter_mut().zip(m.phase_nanos.iter()) {
                    *t += n;
                }
            }
            // Routing operators (wherever they live, including serial-
            // section distribute writers) credit the rows they sent to
            // each *destination* partition — the skew view: a hot key
            // shows up as one partition's rows_routed_in towering over
            // the others.
            for (p, &n) in m.routed.iter().enumerate() {
                if p < out.len() {
                    out[p].rows_routed_in += n;
                }
            }
        }
        out
    }
}

/// Counters of one worker partition of a parallel run, summed over the
/// partition's operator clones.
#[derive(Clone, Debug)]
pub struct PartitionSnapshot {
    /// The partition index.
    pub partition: u32,
    /// Rows emitted by the partition's operators.
    pub rows_out: u64,
    /// Rows probed against AIP filters inside the partition.
    pub aip_probed: u64,
    /// Rows dropped by AIP filters inside the partition.
    pub aip_dropped: u64,
    /// Sum of the partition operators' peak state bytes.
    pub state_peak: u64,
    /// Rows routing operators (ShuffleWrite/Exchange) sent *to* this
    /// partition — the per-destination skew view.
    pub rows_routed_in: u64,
    /// Nanoseconds attributed per [`Phase`] across the partition's
    /// operators (zero with tracing off).
    pub phase_nanos: [u64; N_PHASES],
}

impl PartitionSnapshot {
    /// Total attributed busy nanoseconds of this partition.
    pub fn busy_nanos(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }
}

/// Shared metrics hub for one execution.
#[derive(Debug)]
pub struct MetricsHub {
    /// Per-op metrics, indexed by OpId.
    pub ops: Vec<Arc<OpMetrics>>,
    /// Global intermediate-state tracker.
    pub state: Arc<StateTracker>,
    /// Filters injected (incremented by controllers).
    pub filters_injected: AtomicU64,
    /// Simulated network bytes (incremented by remote scans).
    pub network_bytes: AtomicU64,
    /// Span/routing collection point (see [`sip_common::trace`]).
    pub trace: Arc<TraceHub>,
}

impl MetricsHub {
    /// A hub for `n_ops` operators with tracing off.
    pub fn new(n_ops: usize) -> Arc<Self> {
        Self::with_trace(n_ops, TraceLevel::Off)
    }

    /// A hub for `n_ops` operators recording at `level`.
    pub fn with_trace(n_ops: usize, level: TraceLevel) -> Arc<Self> {
        Arc::new(MetricsHub {
            ops: (0..n_ops).map(|_| Arc::new(OpMetrics::default())).collect(),
            state: StateTracker::new(),
            filters_injected: AtomicU64::new(0),
            network_bytes: AtomicU64::new(0),
            trace: TraceHub::new(level),
        })
    }

    /// Metrics for one op.
    pub fn op(&self, op: OpId) -> &OpMetrics {
        &self.ops[op.index()]
    }

    /// Freeze into an [`ExecMetrics`], merging every flushed thread trace
    /// into the per-operator snapshots (deterministic: the drain orders
    /// traces by `(op, partition)` and all merge ops are sums).
    pub fn finish(&self, wall_time: Duration, rows_out: u64) -> ExecMetrics {
        self.finish_with(wall_time, rows_out, false)
    }

    /// [`MetricsHub::finish`] for a run that may have been torn down
    /// early. A cancelled run legitimately violates the
    /// one-Compute-span-per-batch attribution invariant (an operator can
    /// die between its emitter's nested flush record and the enclosing
    /// Compute span's end), so with `cancelled` the nested subtraction
    /// clamps without asserting or counting underflow — the metrics are
    /// flagged [`ExecMetrics::cancelled`] instead.
    pub fn finish_with(&self, wall_time: Duration, rows_out: u64, cancelled: bool) -> ExecMetrics {
        let mut per_op: Vec<OpMetricsSnapshot> = self
            .ops
            .iter()
            .enumerate()
            .map(|(i, m)| m.snapshot(OpId(i as u32)))
            .collect();
        let snap = self.trace.drain();
        let mut nested: Vec<u64> = vec![0; per_op.len()];
        for t in &snap.threads {
            let Some(m) = per_op.get_mut(t.op as usize) else {
                continue;
            };
            for (slot, &n) in m.phase_nanos.iter_mut().zip(t.phase_nanos.iter()) {
                *slot += n;
            }
            for (slot, &n) in m.phase_counts.iter_mut().zip(t.phase_counts.iter()) {
                *slot += n;
            }
            nested[t.op as usize] += t.nested_nanos;
            if m.routed.len() < t.routed.len() {
                m.routed.resize(t.routed.len(), 0);
            }
            for (slot, &n) in m.routed.iter_mut().zip(t.routed.iter()) {
                *slot += n;
            }
            m.occupancy_sum += t.occupancy_sum;
            m.occupancy_samples += t.occupancy_samples;
        }
        // Emitter auto-flush time elapsed inside Compute spans: subtract it
        // once per op so phases partition busy time instead of overlapping.
        // Every nested interval lies inside some Compute span by
        // construction, so nested <= compute must hold; an underflow means
        // a span was mis-attributed and that operator's compute total is
        // clamped (under-reported), which the counter makes visible.
        let mut attribution_underflow = 0u64;
        for (i, (m, &n)) in per_op.iter_mut().zip(nested.iter()).enumerate() {
            let c = Phase::Compute as usize;
            debug_assert!(
                cancelled || n <= m.phase_nanos[c],
                "op {i}: nested emitter time {n}ns exceeds its Compute total {}ns \
                 (a span escaped the one-Compute-span-per-batch invariant)",
                m.phase_nanos[c]
            );
            if n > m.phase_nanos[c] && !cancelled {
                attribution_underflow += 1;
            }
            m.phase_nanos[c] = m.phase_nanos[c].saturating_sub(n);
        }
        let aip_dropped_total = per_op.iter().map(|m| m.aip_dropped).sum();
        ExecMetrics {
            wall_time,
            peak_state_bytes: self.state.peak(),
            final_state_bytes: self.state.current(),
            per_op,
            rows_out,
            aip_dropped_total,
            filters_injected: self.filters_injected.load(Ordering::Relaxed),
            network_bytes: self.network_bytes.load(Ordering::Relaxed),
            attribution_underflow,
            trace_level: self.trace.level(),
            spans: snap.events,
            filter_events: snap.filters,
            filter_stats: Vec::new(),
            cancelled,
            recovered: false,
            attempts: 1,
            threads_spawned: 0,
            threads_live_at_end: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_peak_tracks_max() {
        let hub = MetricsHub::new(2);
        let m = hub.op(OpId(0));
        m.add_state(100, &hub.state);
        m.add_state(-40, &hub.state);
        m.add_state(20, &hub.state);
        assert_eq!(m.state_bytes.load(Ordering::Relaxed), 80);
        assert_eq!(m.state_peak.load(Ordering::Relaxed), 100);
        assert_eq!(hub.state.peak(), 100);
    }

    #[test]
    fn global_peak_sums_operators() {
        let hub = MetricsHub::new(2);
        hub.op(OpId(0)).add_state(100, &hub.state);
        hub.op(OpId(1)).add_state(100, &hub.state);
        hub.op(OpId(0)).add_state(-100, &hub.state);
        assert_eq!(hub.state.peak(), 200);
        assert_eq!(hub.state.current(), 100);
    }

    #[test]
    fn finish_aggregates() {
        let hub = MetricsHub::new(2);
        hub.op(OpId(0)).aip_dropped.store(5, Ordering::Relaxed);
        hub.op(OpId(1)).aip_dropped.store(7, Ordering::Relaxed);
        hub.filters_injected.store(2, Ordering::Relaxed);
        let m = hub.finish(Duration::from_millis(10), 42);
        assert_eq!(m.rows_out, 42);
        assert_eq!(m.aip_dropped_total, 12);
        assert_eq!(m.filters_injected, 2);
        assert_eq!(m.per_op.len(), 2);
        assert_eq!(m.per_op[1].op, OpId(1));
        assert_eq!(m.trace_level, TraceLevel::Off);
    }

    #[test]
    fn routing_counts_merge_through_trace_path() {
        // Two writer threads of the same routing op flush independently;
        // finish merges their counts — the lock-free replacement for the
        // old OpMetrics::record_routing Mutex.
        let hub = MetricsHub::new(2);
        let mut a = hub.trace.tracer(0, None);
        a.set_routed(&[5, 0, 7]);
        a.flush();
        let mut b = hub.trace.tracer(0, None);
        b.set_routed(&[1, 2, 3, 4]); // a wider merge grows the vec
        b.flush();
        let m = hub.finish(Duration::ZERO, 0);
        assert_eq!(m.per_op[0].routed, vec![6, 2, 10, 4]);
        assert!(m.per_op[1].routed.is_empty());
    }

    #[test]
    fn finish_merges_phases_and_subtracts_nested() {
        let hub = MetricsHub::with_trace(1, TraceLevel::Ops);
        // Operator thread: one compute span of >= 10ms.
        let mut op_side = hub.trace.tracer(0, None);
        let before = std::time::Instant::now();
        let s = op_side.begin();
        std::thread::sleep(Duration::from_millis(10));
        op_side.end(Phase::Compute, s);
        let raw_upper = before.elapsed().as_nanos() as u64;
        op_side.flush();
        // Emitter trace: >= 3ms of send time that elapsed inside the
        // compute span above, flagged as nested.
        let mut em = hub.trace.tracer(0, None);
        let s = em.begin();
        std::thread::sleep(Duration::from_millis(3));
        em.end(Phase::ChannelSend, s);
        em.add_nested(s);
        em.flush();
        let m = hub.finish(Duration::from_millis(20), 0);
        let snap = &m.per_op[0];
        let compute = snap.phase(Phase::Compute);
        let send = snap.phase(Phase::ChannelSend);
        assert!(send >= Duration::from_millis(3).as_nanos() as u64);
        assert!(compute > 0, "nested subtraction must not erase compute");
        // adjusted = raw - nested, nested >= 3ms, raw <= raw_upper.
        let bound = raw_upper.saturating_sub(Duration::from_millis(2).as_nanos() as u64);
        assert!(compute <= bound, "nested send time was not subtracted");
        assert_eq!(snap.phase_counts[Phase::Compute as usize], 1);
    }

    #[test]
    fn nested_within_compute_leaves_no_underflow() {
        let hub = MetricsHub::with_trace(1, TraceLevel::Ops);
        let mut t = hub.trace.tracer(0, None);
        let s = t.begin();
        std::thread::sleep(Duration::from_millis(2));
        t.end(Phase::Compute, s);
        t.flush();
        let mut em = hub.trace.tracer(0, None);
        let s = em.begin();
        em.end(Phase::ChannelSend, s);
        em.add_nested(s); // ~0ns nested, well inside the 2ms compute
        em.flush();
        let m = hub.finish(Duration::ZERO, 0);
        assert_eq!(m.attribution_underflow, 0);
    }

    #[test]
    fn attribution_underflow_is_loud_not_silent() {
        // An impossible trace: nested emitter time with no Compute span at
        // all. Debug builds must assert; release builds must clamp *and*
        // count the clamp instead of silently zeroing.
        let hub = MetricsHub::with_trace(1, TraceLevel::Ops);
        let mut em = hub.trace.tracer(0, None);
        let s = em.begin();
        std::thread::sleep(Duration::from_millis(1));
        em.end(Phase::ChannelSend, s);
        em.add_nested(s);
        em.flush();
        #[cfg(debug_assertions)]
        {
            let hub2 = Arc::clone(&hub);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                hub2.finish(Duration::ZERO, 0)
            }));
            assert!(r.is_err(), "debug build must assert on underflow");
        }
        #[cfg(not(debug_assertions))]
        {
            let m = hub.finish(Duration::ZERO, 0);
            assert_eq!(m.attribution_underflow, 1);
            assert_eq!(m.per_op[0].phase(Phase::Compute), 0);
        }
    }

    #[test]
    fn cancelled_finish_clamps_underflow_quietly() {
        // The same impossible trace as above, but for a cancelled run —
        // an operator that died mid-batch legitimately leaves nested time
        // with no enclosing Compute span. The cancelled finish must not
        // assert and must not count the clamp as an attribution bug; the
        // `cancelled` flag is the caveat instead.
        let hub = MetricsHub::with_trace(1, TraceLevel::Ops);
        let mut em = hub.trace.tracer(0, None);
        let s = em.begin();
        std::thread::sleep(Duration::from_millis(1));
        em.end(Phase::ChannelSend, s);
        em.add_nested(s);
        em.flush();
        let m = hub.finish_with(Duration::ZERO, 0, true);
        assert!(m.cancelled);
        assert_eq!(m.attribution_underflow, 0);
        assert_eq!(m.per_op[0].phase(Phase::Compute), 0);
        // And a normal finish still reports not-cancelled.
        assert!(!MetricsHub::new(1).finish(Duration::ZERO, 0).cancelled);
    }

    #[test]
    fn merge_is_deterministic_across_flush_orders() {
        let run = |reverse: bool| {
            let hub = MetricsHub::with_trace(3, TraceLevel::Ops);
            let mut tracers = Vec::new();
            for op in [2u32, 0, 1, 2] {
                let mut t = hub.trace.tracer(op, Some(op));
                let s = t.begin();
                t.end(Phase::Compute, s);
                t.set_routed(&[1, 2]);
                tracers.push(t);
            }
            if reverse {
                tracers.reverse();
            }
            for t in tracers {
                t.flush();
            }
            let m = hub.finish(Duration::ZERO, 0);
            m.per_op
                .iter()
                .map(|s| (s.op, s.phase_counts, s.routed.clone()))
                .collect::<Vec<_>>()
        };
        let a = run(false);
        let b = run(true);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
            assert_eq!(x.2, y.2);
        }
    }

    #[test]
    fn mb_conversion() {
        let hub = MetricsHub::new(1);
        hub.op(OpId(0)).add_state(2 * 1024 * 1024, &hub.state);
        let m = hub.finish(Duration::ZERO, 0);
        assert!((m.peak_state_mb() - 2.0).abs() < 1e-9);
    }
}
