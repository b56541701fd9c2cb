//! Schema-checked query profiles (`sip.query_profile/v1`).
//!
//! A [`QueryProfile`] is the single frozen view of one executed query that
//! every reporting surface renders from: the `repro --profile` JSON
//! artifact, [`crate::report::explain_analyze`]'s annotated tree, and the
//! per-worker lines the benchmarks print. It joins the plan shape with the
//! merged `sip-trace` metrics — per-operator phase breakdown, routing skew,
//! AIP filter ROI and lifecycle — so the three surfaces cannot drift apart.
//!
//! The JSON is hand-rolled (the workspace takes no serde dependency),
//! mirroring the `BENCH_*.json` convention in `sip-bench`.

use crate::context::PartitionMap;
use crate::metrics::{ExecMetrics, FilterStat};
use crate::physical::PhysPlan;
use sip_common::json::json_str;
use sip_common::trace::{FilterEvent, SpanEvent, TraceLevel, N_PHASES};
use sip_common::Phase;
use std::fmt::Write as _;

/// Schema identifier stamped into every profile artifact.
pub const PROFILE_SCHEMA: &str = "sip.query_profile/v1";

/// One operator's frozen row of the profile.
#[derive(Clone, Debug)]
pub struct OpProfile {
    /// Operator id (raw index).
    pub op: u32,
    /// Physical operator kind name (`HashJoin`, `ShuffleWrite`, ...).
    pub kind: String,
    /// Worker partition owning this clone, `None` for serial sections.
    pub partition: Option<u32>,
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
    /// Nanoseconds attributed per [`Phase`] (zero with tracing off).
    pub phase_nanos: [u64; N_PHASES],
    /// Spans recorded per [`Phase`].
    pub phase_counts: [u64; N_PHASES],
    /// Rows routed per destination partition (routing operators only).
    pub routed: Vec<u64>,
    /// Mean sampled occupancy of the downstream channel, if sampled.
    pub occupancy_mean: Option<f64>,
}

impl OpProfile {
    /// Total attributed busy nanoseconds.
    pub fn busy_nanos(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }

    /// AIP drop rate in percent, `None` when nothing was probed.
    pub fn drop_rate(&self) -> Option<f64> {
        (self.aip_probed > 0).then(|| 100.0 * self.aip_dropped as f64 / self.aip_probed as f64)
    }
}

/// One worker partition's rollup (parallel runs only).
#[derive(Clone, Debug)]
pub struct PartitionProfile {
    /// Partition index.
    pub partition: u32,
    /// Rows emitted inside the partition.
    pub rows_out: u64,
    /// AIP probes inside the partition.
    pub aip_probed: u64,
    /// AIP drops inside the partition.
    pub aip_dropped: u64,
    /// Summed peak state bytes.
    pub state_peak: u64,
    /// Rows routing operators sent *to* this partition.
    pub rows_routed_in: u64,
    /// Nanoseconds attributed per [`Phase`].
    pub phase_nanos: [u64; N_PHASES],
}

impl PartitionProfile {
    /// Total attributed busy nanoseconds.
    pub fn busy_nanos(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }
}

/// The complete frozen profile of one executed query.
#[derive(Clone, Debug)]
pub struct QueryProfile {
    /// Always [`PROFILE_SCHEMA`].
    pub schema: &'static str,
    /// The trace level the run recorded at.
    pub trace_level: TraceLevel,
    /// Wall-clock nanoseconds.
    pub wall_nanos: u64,
    /// Rows the root produced.
    pub rows_out: u64,
    /// Peak intermediate state, bytes.
    pub peak_state_bytes: u64,
    /// Simulated network bytes (0 for local runs).
    pub network_bytes: u64,
    /// AIP filters injected.
    pub filters_injected: u64,
    /// Total rows AIP filters dropped.
    pub aip_dropped_total: u64,
    /// Operators whose phase attribution clamped at merge time (nested
    /// emitter time exceeded the Compute total). Should always be 0; a
    /// nonzero value flags under-reported compute in `phase_nanos`.
    pub attribution_underflow: u64,
    /// Whether the query was cancelled (failure, deadline, or external
    /// cancel) before completing. A cancelled profile is still coherent —
    /// its counters snapshot the work done up to teardown.
    pub cancelled: bool,
    /// Whether a whole-run retry healed a failure on the way to this
    /// result.
    pub recovered: bool,
    /// Run-level attempts the result took (1 = first try succeeded).
    pub attempts: u32,
    /// Threads the run spawned (operators plus the progress watchdog).
    pub threads_spawned: u64,
    /// Threads still inside their bodies when the run returned; anything
    /// but 0 is a leak.
    pub threads_live_at_end: u64,
    /// Degree of parallelism (1 for serial runs).
    pub dop: u32,
    /// Whole-plan nanoseconds per phase.
    pub phase_totals: [u64; N_PHASES],
    /// Per-operator rows, indexed by operator id.
    pub ops: Vec<OpProfile>,
    /// Per-partition rollups (empty for serial runs).
    pub partitions: Vec<PartitionProfile>,
    /// max/mean of per-partition busy time, `None` without partitions or
    /// with tracing off.
    pub busy_skew: Option<f64>,
    /// max/mean of per-partition routed-in rows, `None` when nothing
    /// routed.
    pub routed_skew: Option<f64>,
    /// Per-filter ROI at query end.
    pub filters: Vec<FilterStat>,
    /// AIP filter lifecycle events (built/scoped/or_merged/shipped).
    pub events: Vec<FilterEvent>,
    /// Individual spans ([`TraceLevel::Spans`] runs only).
    pub spans: Vec<SpanEvent>,
}

/// max / mean over a slice, `None` when the slice is empty or all-zero.
pub(crate) fn skew_of(xs: &[u64]) -> Option<f64> {
    let total: u64 = xs.iter().sum();
    if xs.is_empty() || total == 0 {
        return None;
    }
    let max = *xs.iter().max().unwrap() as f64;
    Some(max / (total as f64 / xs.len() as f64))
}

fn partition_rows(metrics: &ExecMetrics, map: &PartitionMap) -> Vec<PartitionProfile> {
    metrics
        .per_partition(map)
        .into_iter()
        .map(|s| PartitionProfile {
            partition: s.partition,
            rows_out: s.rows_out,
            aip_probed: s.aip_probed,
            aip_dropped: s.aip_dropped,
            state_peak: s.state_peak,
            rows_routed_in: s.rows_routed_in,
            phase_nanos: s.phase_nanos,
        })
        .collect()
}

impl QueryProfile {
    /// Join an executed plan with its metrics (and the partition map of a
    /// parallel run) into one profile.
    pub fn from_run(plan: &PhysPlan, metrics: &ExecMetrics, map: Option<&PartitionMap>) -> Self {
        let ops: Vec<OpProfile> = metrics
            .per_op
            .iter()
            .map(|m| OpProfile {
                op: m.op.0,
                kind: plan.node(m.op).kind.name().to_string(),
                partition: map.and_then(|pm| pm.partition(m.op)),
                rows_in: m.rows_in,
                batches_in: m.batches_in,
                rows_out: m.rows_out,
                aip_probed: m.aip_probed,
                aip_dropped: m.aip_dropped,
                state_peak: m.state_peak,
                phase_nanos: m.phase_nanos,
                phase_counts: m.phase_counts,
                routed: m.routed.clone(),
                occupancy_mean: m.occupancy_mean(),
            })
            .collect();
        let partitions = map
            .map(|pm| partition_rows(metrics, pm))
            .unwrap_or_default();
        let busy: Vec<u64> = partitions.iter().map(|p| p.busy_nanos()).collect();
        let routed_in: Vec<u64> = partitions.iter().map(|p| p.rows_routed_in).collect();
        QueryProfile {
            schema: PROFILE_SCHEMA,
            trace_level: metrics.trace_level,
            wall_nanos: metrics.wall_time.as_nanos() as u64,
            rows_out: metrics.rows_out,
            peak_state_bytes: metrics.peak_state_bytes,
            network_bytes: metrics.network_bytes,
            filters_injected: metrics.filters_injected,
            aip_dropped_total: metrics.aip_dropped_total,
            attribution_underflow: metrics.attribution_underflow,
            cancelled: metrics.cancelled,
            recovered: metrics.recovered,
            attempts: metrics.attempts,
            threads_spawned: metrics.threads_spawned,
            threads_live_at_end: metrics.threads_live_at_end,
            dop: map.map_or(1, |pm| pm.dop),
            phase_totals: metrics.phase_totals(),
            ops,
            partitions,
            busy_skew: skew_of(&busy),
            routed_skew: skew_of(&routed_in),
            filters: metrics.filter_stats.clone(),
            events: metrics.filter_events.clone(),
            spans: metrics.spans.clone(),
        }
    }

    /// One rendered line per worker partition — the single formatter both
    /// `explain_analyze` and the benchmark harness print.
    pub fn worker_lines(&self) -> Vec<String> {
        self.partitions.iter().map(fmt_worker_line).collect()
    }

    /// Render as `sip.query_profile/v1` JSON (hand-rolled, like the
    /// `BENCH_*.json` artifacts).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(self.schema));
        let _ = writeln!(
            out,
            "  \"trace_level\": {},",
            json_str(self.trace_level.name())
        );
        let _ = writeln!(out, "  \"wall_nanos\": {},", self.wall_nanos);
        let _ = writeln!(out, "  \"rows_out\": {},", self.rows_out);
        let _ = writeln!(out, "  \"peak_state_bytes\": {},", self.peak_state_bytes);
        let _ = writeln!(out, "  \"network_bytes\": {},", self.network_bytes);
        let _ = writeln!(out, "  \"filters_injected\": {},", self.filters_injected);
        let _ = writeln!(out, "  \"aip_dropped_total\": {},", self.aip_dropped_total);
        let _ = writeln!(
            out,
            "  \"attribution_underflow\": {},",
            self.attribution_underflow
        );
        let _ = writeln!(out, "  \"cancelled\": {},", self.cancelled);
        let _ = writeln!(out, "  \"recovered\": {},", self.recovered);
        let _ = writeln!(out, "  \"attempts\": {},", self.attempts);
        let _ = writeln!(out, "  \"threads_spawned\": {},", self.threads_spawned);
        let _ = writeln!(
            out,
            "  \"threads_live_at_end\": {},",
            self.threads_live_at_end
        );
        let _ = writeln!(out, "  \"dop\": {},", self.dop);
        let _ = writeln!(out, "  \"phase_names\": {},", json_phase_names());
        let _ = writeln!(
            out,
            "  \"phase_totals\": {},",
            json_u64s(&self.phase_totals)
        );
        out.push_str("  \"ops\": [\n");
        for (i, o) in self.ops.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"op\": {}, \"kind\": {}, \"partition\": {}, \"rows_in\": {}, \
\"batches_in\": {}, \"rows_out\": {}, \"aip_probed\": {}, \"aip_dropped\": {}, \
\"state_peak\": {}, \"phase_nanos\": {}, \"phase_counts\": {}, \"busy_nanos\": {}, \
\"routed\": {}, \"occupancy_mean\": {}}}",
                o.op,
                json_str(&o.kind),
                json_opt_u32(o.partition),
                json_u64s(&o.rows_in),
                o.batches_in,
                o.rows_out,
                o.aip_probed,
                o.aip_dropped,
                o.state_peak,
                json_u64s(&o.phase_nanos),
                json_u64s(&o.phase_counts),
                o.busy_nanos(),
                json_u64s(&o.routed),
                json_opt_f64(o.occupancy_mean),
            );
            out.push_str(if i + 1 < self.ops.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"partitions\": [\n");
        for (i, p) in self.partitions.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"partition\": {}, \"rows_out\": {}, \"aip_probed\": {}, \
\"aip_dropped\": {}, \"state_peak\": {}, \"rows_routed_in\": {}, \"busy_nanos\": {}, \
\"phase_nanos\": {}}}",
                p.partition,
                p.rows_out,
                p.aip_probed,
                p.aip_dropped,
                p.state_peak,
                p.rows_routed_in,
                p.busy_nanos(),
                json_u64s(&p.phase_nanos),
            );
            out.push_str(if i + 1 < self.partitions.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"skew\": {{\"busy_max_over_mean\": {}, \"routed_max_over_mean\": {}}},",
            json_opt_f64(self.busy_skew),
            json_opt_f64(self.routed_skew)
        );
        out.push_str("  \"filters\": [\n");
        for (i, f) in self.filters.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"site\": {}, \"label\": {}, \"probed\": {}, \"dropped\": {}, \
\"keys\": {}, \"bytes\": {}}}",
                f.site.0,
                json_str(&f.label),
                f.probed,
                f.dropped,
                f.keys,
                f.bytes,
            );
            out.push_str(if i + 1 < self.filters.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"kind\": {}, \"site\": {}, \"label\": {}, \"t_nanos\": {}, \
\"build_nanos\": {}, \"keys\": {}, \"bytes\": {}}}",
                json_str(e.kind.name()),
                e.site,
                json_str(&e.label),
                e.t_nanos,
                e.build_nanos,
                e.keys,
                e.bytes,
            );
            out.push_str(if i + 1 < self.events.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"op\": {}, \"partition\": {}, \"phase\": {}, \"t_start\": {}, \
\"t_end\": {}}}",
                s.op,
                json_opt_u32(s.partition),
                json_str(s.phase.name()),
                s.t_start,
                s.t_end,
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Per-worker lines straight from metrics — for call sites (the benchmark
/// harness) that hold a [`PartitionMap`] but not the executed plan. Same
/// formatter as [`QueryProfile::worker_lines`].
pub fn worker_lines(metrics: &ExecMetrics, map: &PartitionMap) -> Vec<String> {
    partition_rows(metrics, map)
        .iter()
        .map(fmt_worker_line)
        .collect()
}

fn fmt_worker_line(p: &PartitionProfile) -> String {
    let mut line = format!(
        "worker {}: rows_out {} aip_probed {} aip_dropped {} rows_routed_in {}",
        p.partition, p.rows_out, p.aip_probed, p.aip_dropped, p.rows_routed_in
    );
    let busy = p.busy_nanos();
    if busy > 0 {
        let _ = write!(
            line,
            " busy {:.1}ms ({})",
            busy as f64 / 1e6,
            fmt_phase_split(&p.phase_nanos)
        );
    }
    line
}

/// `compute 61% recv 30% send 9%`-style phase split (phases under 0.5% are
/// elided; empty when nothing was attributed).
pub(crate) fn fmt_phase_split(phase_nanos: &[u64; N_PHASES]) -> String {
    let busy: u64 = phase_nanos.iter().sum();
    if busy == 0 {
        return String::new();
    }
    let mut parts = Vec::new();
    for p in Phase::ALL {
        let share = 100.0 * phase_nanos[p as usize] as f64 / busy as f64;
        if share >= 0.5 {
            parts.push(format!("{} {share:.0}%", p.name()));
        }
    }
    parts.join(" ")
}

fn json_phase_names() -> String {
    let names: Vec<String> = Phase::ALL.iter().map(|p| json_str(p.name())).collect();
    format!("[{}]", names.join(", "))
}

fn json_u64s(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(", "))
}

fn json_opt_u32(x: Option<u32>) -> String {
    match x {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

fn json_opt_f64(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v:.4}"),
        _ => "null".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecOptions;
    use crate::exec::execute_baseline;
    use crate::physical::lower;
    use sip_data::{generate, TpchConfig};
    use sip_plan::QueryBuilder;
    use std::sync::Arc;

    fn run_profile(level: TraceLevel) -> QueryProfile {
        let c = generate(&TpchConfig::uniform(0.002)).unwrap();
        let mut q = QueryBuilder::new(&c);
        let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let j = q.join(p, ps, &[("p.p_partkey", "ps.ps_partkey")]).unwrap();
        let plan = Arc::new(lower(j.plan(), q.attrs().clone(), &c).unwrap());
        let opts = ExecOptions::default().with_trace(level);
        let out = execute_baseline(Arc::clone(&plan), opts).unwrap();
        QueryProfile::from_run(&plan, &out.metrics, None)
    }

    #[test]
    fn profile_json_has_schema_and_balanced_braces() {
        let p = run_profile(TraceLevel::Ops);
        let json = p.to_json();
        assert!(json.contains("\"schema\": \"sip.query_profile/v1\""));
        assert!(json.contains("\"trace_level\": \"ops\""));
        assert!(json.contains("\"phase_names\": [\"compute\", \"tap_probe\""));
        assert!(json.contains("\"ops\": ["));
        assert!(json.contains("\"partitions\": ["));
        assert!(json.contains("\"skew\": {"));
        // The thread ledger is exported, and balanced once the run returns.
        assert!(p.threads_spawned > 0);
        assert!(json.contains(&format!("\"threads_spawned\": {}", p.threads_spawned)));
        assert_eq!(p.threads_live_at_end, 0);
        assert!(json.contains("\"threads_live_at_end\": 0"));
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "unbalanced braces:\n{json}");
        let open = json.matches('[').count();
        let close = json.matches(']').count();
        assert_eq!(open, close, "unbalanced brackets:\n{json}");
    }

    #[test]
    fn phases_sum_within_wall_and_counts_match_batches() {
        let p = run_profile(TraceLevel::Ops);
        assert!(p.phase_totals.iter().sum::<u64>() > 0, "no time attributed");
        for o in &p.ops {
            // Phases partition one thread's busy time, which cannot exceed
            // the query's wall clock (one OS thread per operator).
            assert!(
                o.busy_nanos() <= p.wall_nanos,
                "op {} {} busy {} > wall {}",
                o.op,
                o.kind,
                o.busy_nanos(),
                p.wall_nanos
            );
            // Batch operators record exactly one Compute span per batch.
            if o.kind == "HashJoin" {
                assert_eq!(
                    o.phase_counts[Phase::Compute as usize],
                    o.batches_in,
                    "op {} {}: compute spans != batches",
                    o.op,
                    o.kind
                );
            }
        }
    }

    #[test]
    fn off_level_attributes_no_time() {
        let p = run_profile(TraceLevel::Off);
        assert_eq!(p.phase_totals.iter().sum::<u64>(), 0);
        assert!(p.spans.is_empty());
        assert_eq!(p.trace_level.name(), "off");
    }

    #[test]
    fn spans_level_records_events_within_wall() {
        let p = run_profile(TraceLevel::Spans);
        assert!(!p.spans.is_empty(), "Spans level recorded no span events");
        for s in &p.spans {
            assert!(s.t_end >= s.t_start);
        }
        // Deterministic ordering by (t_start, op, phase).
        for w in p.spans.windows(2) {
            assert!(w[0].t_start <= w[1].t_start);
        }
    }

    #[test]
    fn skew_ratio_handles_edges() {
        assert_eq!(skew_of(&[]), None);
        assert_eq!(skew_of(&[0, 0]), None);
        assert_eq!(skew_of(&[2, 2]), Some(1.0));
        assert_eq!(skew_of(&[6, 2]), Some(1.5));
    }
}
