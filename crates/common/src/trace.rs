//! `sip-trace`: span/clock primitives for the executor's observability
//! layer.
//!
//! Every operator thread owns an [`OpTracer`] — a purely thread-local
//! accumulator of phase timings, span events, routing counts, and
//! channel-occupancy samples. The hot path touches **no shared state**: a
//! span is two `Instant` reads and a couple of array adds. Tracers are
//! handed to the shared [`TraceHub`] exactly once, when the operator
//! finishes ([`OpTracer::flush`]), and the hub merges everything
//! deterministically at collect time ([`TraceHub::drain`]).
//!
//! Tracing is gated by [`TraceLevel`]:
//!
//! * [`TraceLevel::Off`] — `begin`/`end` are a single branch; no clock
//!   reads. Routing counts still flow (they replace the old
//!   `Mutex<Vec<u64>>` hot-path merge in `OpMetrics`), so skew metrics
//!   never regress when tracing is disabled.
//! * [`TraceLevel::Ops`] — per-phase nanosecond totals and span counts per
//!   operator; no event ring. This is cheap enough to leave on for
//!   benchmark runs (phase breakdowns in `BENCH_*` figures).
//! * [`TraceLevel::Spans`] — additionally records individual
//!   [`SpanEvent`]s into a bounded per-thread ring (profiling runs).

use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of instrumented execution phases.
pub const N_PHASES: usize = 5;

/// Per-thread span-event ring capacity ([`TraceLevel::Spans`] only).
/// Overflow increments [`ThreadTrace::events_dropped`] instead of growing.
pub const EVENT_RING_CAP: usize = 4096;

/// How much runtime detail the executor records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceLevel {
    /// No timing at all (the default). Routing counts still flow.
    #[default]
    Off,
    /// Per-operator phase totals and span counts.
    Ops,
    /// Phase totals plus individual span events (bounded ring).
    Spans,
}

impl TraceLevel {
    /// True when any timing is recorded.
    #[inline]
    pub fn enabled(self) -> bool {
        !matches!(self, TraceLevel::Off)
    }

    /// True when individual span events are recorded.
    #[inline]
    pub fn spans(self) -> bool {
        matches!(self, TraceLevel::Spans)
    }

    /// Stable lowercase name (used in profile JSON).
    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Ops => "ops",
            TraceLevel::Spans => "spans",
        }
    }
}

/// One attributed slice of an operator thread's wall-clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Operator-interior work: predicate eval, digest passes, probe/insert
    /// loops, routing.
    Compute = 0,
    /// Probing injected AIP filters (the tap stack).
    TapProbe = 1,
    /// Feeding admitted rows to AIP working-set builders (`admit_batch`).
    AdmitBuild = 2,
    /// Blocked sending downstream (backpressure shows up here).
    ChannelSend = 3,
    /// Blocked receiving from upstream (starvation shows up here).
    ChannelRecv = 4,
}

impl Phase {
    /// All phases, index-ordered (`phase as usize` is the array slot).
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Compute,
        Phase::TapProbe,
        Phase::AdmitBuild,
        Phase::ChannelSend,
        Phase::ChannelRecv,
    ];

    /// Stable snake_case name (used in profile JSON and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::TapProbe => "tap_probe",
            Phase::AdmitBuild => "admit_build",
            Phase::ChannelSend => "channel_send",
            Phase::ChannelRecv => "channel_recv",
        }
    }
}

/// One recorded span ([`TraceLevel::Spans`] only). Times are nanoseconds
/// since the owning [`TraceHub`]'s epoch.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Operator id (raw `OpId` index).
    pub op: u32,
    /// Worker partition, `None` for serial-section operators.
    pub partition: Option<u32>,
    /// What the thread was doing.
    pub phase: Phase,
    /// Span start, nanos since hub epoch.
    pub t_start: u64,
    /// Span end, nanos since hub epoch.
    pub t_end: u64,
}

/// AIP filter lifecycle event kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterEventKind {
    /// A working set was sealed into a filter (build cost attached).
    Built,
    /// A filter was published under a partition scope.
    Scoped,
    /// Per-partition filters were OR-merged into a plan-wide union.
    OrMerged,
    /// A filter crossed a simulated network link to a remote site.
    Shipped,
}

impl FilterEventKind {
    /// Stable lowercase name (used in profile JSON).
    pub fn name(self) -> &'static str {
        match self {
            FilterEventKind::Built => "built",
            FilterEventKind::Scoped => "scoped",
            FilterEventKind::OrMerged => "or_merged",
            FilterEventKind::Shipped => "shipped",
        }
    }
}

/// One AIP filter lifecycle event. These are rare (a handful per query) and
/// recorded through the hub's cold path regardless of [`TraceLevel`].
#[derive(Clone, Debug)]
pub struct FilterEvent {
    /// What happened.
    pub kind: FilterEventKind,
    /// The operator the filter targets (raw `OpId` index).
    pub site: u32,
    /// Human-readable filter label (producer attribute).
    pub label: String,
    /// When, nanos since hub epoch.
    pub t_nanos: u64,
    /// Cost of building the working set (0 when not applicable).
    pub build_nanos: u64,
    /// Keys in the filter's working set.
    pub keys: u64,
    /// Filter footprint in bytes.
    pub bytes: u64,
}

/// Everything one operator thread accumulated: phase totals, span counts,
/// the optional event ring, routing counts, and occupancy samples. Merged
/// into per-operator metrics at collect time.
#[derive(Clone, Debug, Default)]
pub struct ThreadTrace {
    /// Operator id (raw `OpId` index).
    pub op: u32,
    /// Worker partition, `None` for serial-section operators.
    pub partition: Option<u32>,
    /// Nanoseconds per phase.
    pub phase_nanos: [u64; N_PHASES],
    /// Spans recorded per phase.
    pub phase_counts: [u64; N_PHASES],
    /// Emitter-flush nanoseconds that elapsed *inside* an enclosing
    /// `Compute` span (auto-flushes triggered mid-loop by `push`). The
    /// merge subtracts these from the operator's `Compute` total so phases
    /// partition the thread's busy time instead of double-counting.
    pub nested_nanos: u64,
    /// Individual spans ([`TraceLevel::Spans`] only), bounded by
    /// [`EVENT_RING_CAP`].
    pub events: Vec<SpanEvent>,
    /// Spans not recorded because the ring was full.
    pub events_dropped: u64,
    /// For routing operators: rows sent per destination partition.
    pub routed: Vec<u64>,
    /// Sum of sampled downstream-channel queue lengths (one sample per
    /// batch send while tracing) — `sum / samples` is the mean occupancy
    /// gauge; high mean occupancy on a mesh writer means its reader is the
    /// bottleneck.
    pub occupancy_sum: u64,
    /// Number of occupancy samples.
    pub occupancy_samples: u64,
}

/// Deterministically ordered merge of every flushed [`ThreadTrace`]:
/// threads sorted by `(op, partition)`, events by `(t_start, op, phase)`,
/// filter events by time. Two runs that record the same spans produce the
/// same snapshot regardless of thread flush order.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    /// All flushed thread traces.
    pub threads: Vec<ThreadTrace>,
    /// All span events across threads ([`TraceLevel::Spans`] only).
    pub events: Vec<SpanEvent>,
    /// All filter lifecycle events.
    pub filters: Vec<FilterEvent>,
}

/// Shared collection point for one execution. Operator threads interact
/// with it only through [`TraceHub::tracer`] (at spawn) and
/// [`OpTracer::flush`] (at finish) — one mutex acquisition per thread per
/// query, never per batch.
#[derive(Debug)]
pub struct TraceHub {
    level: TraceLevel,
    epoch: Instant,
    sink: Mutex<Vec<ThreadTrace>>,
    filter_events: Mutex<Vec<FilterEvent>>,
}

impl TraceHub {
    /// A hub recording at `level`. The epoch (t=0 for all span times) is
    /// the moment of construction.
    pub fn new(level: TraceLevel) -> Arc<Self> {
        Arc::new(TraceHub {
            level,
            epoch: Instant::now(),
            sink: Mutex::new(Vec::new()),
            filter_events: Mutex::new(Vec::new()),
        })
    }

    /// The configured level.
    #[inline]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Nanoseconds since the hub epoch.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A thread-local tracer for operator `op` running in `partition`.
    pub fn tracer(self: &Arc<Self>, op: u32, partition: Option<u32>) -> OpTracer {
        OpTracer {
            hub: Arc::clone(self),
            enabled: self.level.enabled(),
            spans: self.level.spans(),
            trace: ThreadTrace {
                op,
                partition,
                ..ThreadTrace::default()
            },
        }
    }

    /// Record an AIP filter lifecycle event (cold path; always recorded —
    /// there are only a handful per query and filter ROI reporting should
    /// not require tracing to be on).
    pub fn filter_event(&self, ev: FilterEvent) {
        self.filter_events.lock().unwrap().push(ev);
    }

    /// Merge everything flushed so far into a deterministic
    /// [`TraceSnapshot`]. Non-destructive: callers may drain more than
    /// once (later drains see later flushes).
    pub fn drain(&self) -> TraceSnapshot {
        let mut threads: Vec<ThreadTrace> = self.sink.lock().unwrap().clone();
        threads.sort_by_key(|t| (t.op, t.partition));
        let mut events: Vec<SpanEvent> = threads.iter().flat_map(|t| t.events.clone()).collect();
        events.sort_by_key(|e| (e.t_start, e.op, e.phase as usize));
        let mut filters: Vec<FilterEvent> = self.filter_events.lock().unwrap().clone();
        filters.sort_by_key(|f| (f.t_nanos, f.site));
        TraceSnapshot {
            threads,
            events,
            filters,
        }
    }
}

/// Thread-local span recorder for one operator thread. All methods are
/// `&mut self` on plain fields — no atomics, no locks — until the single
/// [`OpTracer::flush`] at operator finish.
#[derive(Debug)]
pub struct OpTracer {
    hub: Arc<TraceHub>,
    enabled: bool,
    spans: bool,
    trace: ThreadTrace,
}

impl OpTracer {
    /// True when phase timing is being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a span. Returns the start timestamp (0 when tracing is off —
    /// `end`/`add` ignore it in that case).
    #[inline]
    pub fn begin(&self) -> u64 {
        if self.enabled {
            self.hub.now()
        } else {
            0
        }
    }

    /// Close a span started at `t_start`: adds its duration to the phase
    /// total, counts it, and (at [`TraceLevel::Spans`]) records the event.
    #[inline]
    pub fn end(&mut self, phase: Phase, t_start: u64) {
        if !self.enabled {
            return;
        }
        let t_end = self.hub.now();
        let i = phase as usize;
        self.trace.phase_nanos[i] += t_end.saturating_sub(t_start);
        self.trace.phase_counts[i] += 1;
        if self.spans {
            if self.trace.events.len() < EVENT_RING_CAP {
                self.trace.events.push(SpanEvent {
                    op: self.trace.op,
                    partition: self.trace.partition,
                    phase,
                    t_start,
                    t_end,
                });
            } else {
                self.trace.events_dropped += 1;
            }
        }
    }

    /// Accumulate time into a phase **without** counting a new span — for
    /// an operator whose per-batch work is split across two code intervals
    /// but should read as one logical span (keeps `Compute` span counts
    /// equal to batch counts).
    #[inline]
    pub fn add(&mut self, phase: Phase, t_start: u64) {
        if !self.enabled {
            return;
        }
        let t_end = self.hub.now();
        self.trace.phase_nanos[phase as usize] += t_end.saturating_sub(t_start);
    }

    /// Record emitter-flush time that elapsed inside an enclosing
    /// `Compute` span (see [`ThreadTrace::nested_nanos`]).
    #[inline]
    pub fn add_nested(&mut self, t_start: u64) {
        if !self.enabled {
            return;
        }
        let t_end = self.hub.now();
        self.trace.nested_nanos += t_end.saturating_sub(t_start);
    }

    /// Merge per-destination routing counts (recorded even with tracing
    /// off — this path replaces the old hot-path `Mutex` merge in
    /// `OpMetrics::record_routing`).
    pub fn set_routed(&mut self, routed: &[u64]) {
        if self.trace.routed.len() < routed.len() {
            self.trace.routed.resize(routed.len(), 0);
        }
        for (slot, n) in self.trace.routed.iter_mut().zip(routed.iter()) {
            *slot += n;
        }
    }

    /// Sample a downstream channel's queue length (call once per send
    /// while tracing; no-op when off).
    #[inline]
    pub fn sample_occupancy(&mut self, queued: usize) {
        if !self.enabled {
            return;
        }
        self.trace.occupancy_sum += queued as u64;
        self.trace.occupancy_samples += 1;
    }

    /// Hand the accumulated trace to the hub — the one cold-path lock of
    /// this thread's lifetime. Pushes whenever there is anything to report
    /// (timing, events, or routing counts), so routing metrics flow even
    /// at [`TraceLevel::Off`].
    pub fn flush(self) {
        let has_data =
            self.enabled || !self.trace.routed.is_empty() || !self.trace.events.is_empty();
        if has_data {
            self.hub.sink.lock().unwrap().push(self.trace);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_level_records_nothing_but_routing() {
        let hub = TraceHub::new(TraceLevel::Off);
        let mut t = hub.tracer(3, None);
        let s = t.begin();
        assert_eq!(s, 0);
        t.end(Phase::Compute, s);
        t.set_routed(&[4, 0, 2]);
        t.flush();
        let snap = hub.drain();
        assert_eq!(snap.threads.len(), 1);
        let tt = &snap.threads[0];
        assert_eq!(tt.phase_nanos, [0; N_PHASES]);
        assert_eq!(tt.phase_counts, [0; N_PHASES]);
        assert_eq!(tt.routed, vec![4, 0, 2]);
        assert!(snap.events.is_empty());
    }

    #[test]
    fn tracer_with_no_data_does_not_flush() {
        let hub = TraceHub::new(TraceLevel::Off);
        let t = hub.tracer(0, None);
        t.flush();
        assert!(hub.drain().threads.is_empty());
    }

    #[test]
    fn ops_level_accumulates_phase_totals_without_events() {
        let hub = TraceHub::new(TraceLevel::Ops);
        let mut t = hub.tracer(1, Some(0));
        for _ in 0..3 {
            let s = t.begin();
            t.end(Phase::Compute, s);
        }
        let s = t.begin();
        t.add(Phase::Compute, s); // accumulate-only: no extra span count
        let s = t.begin();
        t.end(Phase::ChannelSend, s);
        t.flush();
        let snap = hub.drain();
        let tt = &snap.threads[0];
        assert_eq!(tt.phase_counts[Phase::Compute as usize], 3);
        assert_eq!(tt.phase_counts[Phase::ChannelSend as usize], 1);
        assert!(snap.events.is_empty(), "Ops level records no event ring");
    }

    #[test]
    fn spans_level_records_bounded_events() {
        let hub = TraceHub::new(TraceLevel::Spans);
        let mut t = hub.tracer(2, Some(1));
        for _ in 0..EVENT_RING_CAP + 10 {
            let s = t.begin();
            t.end(Phase::TapProbe, s);
        }
        t.flush();
        let snap = hub.drain();
        assert_eq!(snap.events.len(), EVENT_RING_CAP);
        assert_eq!(snap.threads[0].events_dropped, 10);
        assert_eq!(
            snap.threads[0].phase_counts[Phase::TapProbe as usize],
            (EVENT_RING_CAP + 10) as u64
        );
        let e = &snap.events[0];
        assert_eq!(e.op, 2);
        assert_eq!(e.partition, Some(1));
        assert!(e.t_end >= e.t_start);
    }

    #[test]
    fn drain_orders_threads_deterministically() {
        // Flush the same traces into two hubs in opposite orders: the
        // drained snapshots must agree structurally.
        let build = |reverse: bool| {
            let hub = TraceHub::new(TraceLevel::Ops);
            let mut tracers = Vec::new();
            for (op, part) in [(2u32, Some(1u32)), (0, None), (2, Some(0)), (1, None)] {
                let mut t = hub.tracer(op, part);
                let s = t.begin();
                t.end(Phase::Compute, s);
                t.set_routed(&[op as u64]);
                tracers.push(t);
            }
            if reverse {
                tracers.reverse();
            }
            for t in tracers {
                t.flush();
            }
            hub.drain()
                .threads
                .iter()
                .map(|t| (t.op, t.partition, t.routed.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn routed_merge_grows_and_sums() {
        let hub = TraceHub::new(TraceLevel::Off);
        let mut t = hub.tracer(0, None);
        t.set_routed(&[5, 0, 7]);
        t.set_routed(&[1, 2, 3, 4]);
        t.flush();
        let snap = hub.drain();
        assert_eq!(snap.threads[0].routed, vec![6, 2, 10, 4]);
    }

    #[test]
    fn filter_events_sorted_by_time() {
        let hub = TraceHub::new(TraceLevel::Off);
        for (t_nanos, site) in [(20u64, 1u32), (10, 2), (20, 0)] {
            hub.filter_event(FilterEvent {
                kind: FilterEventKind::Built,
                site,
                label: "k".into(),
                t_nanos,
                build_nanos: 0,
                keys: 1,
                bytes: 8,
            });
        }
        let snap = hub.drain();
        let order: Vec<(u64, u32)> = snap.filters.iter().map(|f| (f.t_nanos, f.site)).collect();
        assert_eq!(order, vec![(10, 2), (20, 0), (20, 1)]);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "compute",
                "tap_probe",
                "admit_build",
                "channel_send",
                "channel_recv"
            ]
        );
        assert_eq!(TraceLevel::Ops.name(), "ops");
        assert_eq!(FilterEventKind::OrMerged.name(), "or_merged");
    }
}
