//! Post-execution plan reports (EXPLAIN ANALYZE-style).
//!
//! Renders the executed plan tree annotated with the per-operator counters
//! the engine collected: rows in/out, peak buffered bytes, AIP filter
//! activity, and — when `sip-trace` was on — the per-phase time breakdown,
//! routing skew, and channel occupancy. This is the operational view a user
//! reaches for first when asking "where did AIP actually prune?" and "where
//! did the time go?".
//!
//! Everything here renders from a [`QueryProfile`], the same frozen view
//! the `repro --profile` JSON artifact serializes — the tree and the
//! artifact cannot disagree.

use crate::context::PartitionMap;
use crate::metrics::ExecMetrics;
use crate::physical::PhysPlan;
use crate::profile::{fmt_phase_split, QueryProfile};
use sip_common::bytes::human_bytes;
use sip_common::OpId;
use std::fmt::Write as _;

/// Render an annotated plan tree for an executed (serial) query.
pub fn explain_analyze(plan: &PhysPlan, metrics: &ExecMetrics) -> String {
    explain_analyze_profiled(plan, metrics, None)
}

/// Render an annotated plan tree, attributing operators to worker
/// partitions when the run was partition-parallel.
pub fn explain_analyze_profiled(
    plan: &PhysPlan,
    metrics: &ExecMetrics,
    map: Option<&PartitionMap>,
) -> String {
    let profile = QueryProfile::from_run(plan, metrics, map);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "query: {} rows out, {:?}, peak state {}, {} AIP filters injected, {} rows pruned",
        profile.rows_out,
        metrics.wall_time,
        human_bytes(profile.peak_state_bytes),
        profile.filters_injected,
        profile.aip_dropped_total,
    );
    if profile.recovered {
        let _ = writeln!(
            out,
            "recovery: result healed by whole-run retry (run attempts {})",
            profile.attempts,
        );
    }
    let busy_total: u64 = profile.phase_totals.iter().sum();
    if busy_total > 0 {
        let _ = writeln!(
            out,
            "trace [{}]: {:.1}ms attributed across {} threads ({})",
            profile.trace_level.name(),
            busy_total as f64 / 1e6,
            profile.ops.len(),
            fmt_phase_split(&profile.phase_totals),
        );
    }
    fmt_node(plan, &profile, plan.root, 0, &mut out);
    fmt_partitions(&profile, &mut out);
    fmt_filters(&profile, &mut out);
    out
}

fn fmt_node(plan: &PhysPlan, profile: &QueryProfile, op: OpId, depth: usize, out: &mut String) {
    let node = plan.node(op);
    let o = &profile.ops[op.index()];
    let pad = "  ".repeat(depth);
    let part = match o.partition {
        Some(p) => format!("[p{p}] "),
        None => String::new(),
    };
    let rows_in = match node.inputs.len() {
        0 => String::new(),
        1 => format!("in={} ", o.rows_in[0]),
        _ => format!("in={}+{} ", o.rows_in[0], o.rows_in[1]),
    };
    let aip = match o.drop_rate() {
        Some(rate) => format!(
            " | aip probed={} dropped={} ({rate:.1}%)",
            o.aip_probed, o.aip_dropped
        ),
        None => String::new(),
    };
    let state = if o.state_peak > 0 {
        format!(" | state peak={}", human_bytes(o.state_peak))
    } else {
        String::new()
    };
    let phases = if o.busy_nanos() > 0 {
        format!(
            " | busy {:.1}ms ({})",
            o.busy_nanos() as f64 / 1e6,
            fmt_phase_split(&o.phase_nanos)
        )
    } else {
        String::new()
    };
    let routing = if o.routed.is_empty() {
        String::new()
    } else {
        let skew = match crate::profile::skew_of(&o.routed) {
            Some(s) => format!(" skew={s:.2}x"),
            None => String::new(),
        };
        format!(" | routed={:?}{skew}", o.routed)
    };
    let occupancy = match o.occupancy_mean {
        Some(q) => format!(" | out-queue avg {q:.1}"),
        None => String::new(),
    };
    let _ = writeln!(
        out,
        "{pad}{} {}{}: {}out={}{}{}{}{}{}",
        node.id,
        part,
        node.kind.name(),
        rows_in,
        o.rows_out,
        state,
        aip,
        phases,
        routing,
        occupancy,
    );
    for &c in &node.inputs {
        fmt_node(plan, profile, c, depth + 1, out);
    }
}

fn fmt_partitions(profile: &QueryProfile, out: &mut String) {
    if profile.partitions.is_empty() {
        return;
    }
    let _ = writeln!(out, "workers (dop {}):", profile.dop);
    for line in profile.worker_lines() {
        let _ = writeln!(out, "  {line}");
    }
    match (profile.busy_skew, profile.routed_skew) {
        (Some(b), Some(r)) => {
            let _ = writeln!(
                out,
                "  skew: busy max/mean {b:.2}x, routed-in max/mean {r:.2}x"
            );
        }
        (Some(b), None) => {
            let _ = writeln!(out, "  skew: busy max/mean {b:.2}x");
        }
        (None, Some(r)) => {
            let _ = writeln!(out, "  skew: routed-in max/mean {r:.2}x");
        }
        (None, None) => {}
    }
}

fn fmt_filters(profile: &QueryProfile, out: &mut String) {
    for f in &profile.filters {
        let rate = 100.0 * f.dropped as f64 / f.probed.max(1) as f64;
        let _ = writeln!(
            out,
            "filter @{} {}: probed={} dropped={} ({rate:.1}%), {} keys, {}",
            f.site,
            f.label,
            f.probed,
            f.dropped,
            f.keys,
            human_bytes(f.bytes),
        );
    }
    for e in &profile.events {
        let build = if e.build_nanos > 0 {
            format!(", built in {:.2}ms", e.build_nanos as f64 / 1e6)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "aip event +{:.2}ms {} {} (op {}): {} keys, {}{build}",
            e.t_nanos as f64 / 1e6,
            e.kind.name(),
            e.label,
            e.site,
            e.keys,
            human_bytes(e.bytes),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecOptions;
    use crate::exec::execute_baseline;
    use crate::physical::lower;
    use sip_common::trace::TraceLevel;
    use sip_data::{generate, TpchConfig};
    use sip_expr::{AggFunc, Expr};
    use sip_plan::QueryBuilder;
    use std::sync::Arc;

    fn sample_run(level: TraceLevel) -> (Arc<PhysPlan>, ExecMetrics) {
        let c = generate(&TpchConfig::uniform(0.002)).unwrap();
        let mut q = QueryBuilder::new(&c);
        let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
        let pred = p.col("p_size").unwrap().eq(Expr::lit(1i64));
        let p = q.filter(p, pred);
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let j = q.join(p, ps, &[("p.p_partkey", "ps.ps_partkey")]).unwrap();
        let qty = j.col("ps_availqty").unwrap();
        let agg = q
            .aggregate(j, &["p.p_partkey"], &[(AggFunc::Sum, qty, "total")])
            .unwrap();
        let plan = Arc::new(lower(agg.plan(), q.attrs().clone(), &c).unwrap());
        let out =
            execute_baseline(Arc::clone(&plan), ExecOptions::default().with_trace(level)).unwrap();
        (plan, out.metrics)
    }

    #[test]
    fn report_shows_counts_and_tree() {
        let (plan, metrics) = sample_run(TraceLevel::Off);
        let text = explain_analyze(&plan, &metrics);
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("Aggregate"));
        assert!(text.contains("state peak="));
        assert!(text.contains("rows out"));
        // Scans show no input column; join shows both inputs.
        assert!(text.contains("in="));
        // Tracing off: no phase annotations appear.
        assert!(!text.contains("busy "), "{text}");
    }

    #[test]
    fn report_phase_annotations_match_profile() {
        let (plan, metrics) = sample_run(TraceLevel::Ops);
        let text = explain_analyze(&plan, &metrics);
        assert!(text.contains("trace [ops]:"), "{text}");
        assert!(text.contains("busy "), "{text}");
        assert!(text.contains("compute"), "{text}");
        // The tree renders the same numbers the profile serializes: the
        // header's attributed total is the profile's phase_totals sum.
        let profile = QueryProfile::from_run(&plan, &metrics, None);
        let total_ms = profile.phase_totals.iter().sum::<u64>() as f64 / 1e6;
        assert!(
            text.contains(&format!("{total_ms:.1}ms attributed")),
            "tree and profile disagree on attributed time:\n{text}"
        );
    }
}
