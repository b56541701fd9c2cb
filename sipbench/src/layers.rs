//! The per-layer metrics of a traced run.
//!
//! Times come from benchmark-side spans around the calls into each layer,
//! counts from what those calls return. A metric of a layer the workload
//! leaves idle (no AIP cell, no dop-2 cell, nothing remote) reads 0.

use crate::adapter::{self, Result, RunSpec, Source, Strategy, PHASE_NAMES};
use crate::run::{pass, Pass, Ready, Timed, MB};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Workload;
use std::time::Instant;

/// Repetitions of a probe that costs about a pass, and of the floor plans,
/// which cost milliseconds and need more samples to sit still.
const PROBE_REPS: usize = 3;
const FLOOR_REPS: usize = 9;

/// Values of `workloads::PER_LAYER`, by name, plus the program's own phase
/// shares (program-reported, so kept apart from what is measured outside).
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
    pub program_phase_share: Vec<(&'static str, f64)>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Milliseconds to plan the workload's cells once: `build_query`, `lower`
/// (with the magic rewrite where the strategy is Magic) and, for dop > 1,
/// `PartitionedExec::plan`. `run_query` repeats the last two inside every
/// cell; they are timed here on their own because no span reaches inside.
fn plan_ms(w: &Workload, ready: &Ready, tr: &mut Tracer) -> Result<f64> {
    let mut reps = Vec::new();
    for _ in 0..PROBE_REPS {
        let start = Instant::now();
        let root = tr.begin("harness.plan_probe", None, None);
        for cell in &w.cells {
            let q = tr.scope("queries.build_query", root, None, || {
                adapter::build_query(&ready.data, cell.query)
            })?;
            let plan = tr.scope("plan.lower", root, None, || {
                adapter::lower(&ready.data, &q, cell.strategy)
            })?;
            if cell.dop > 1 {
                tr.scope("parallel.partition_plan", root, None, || {
                    adapter::partition(&plan, cell.dop)
                })?;
            }
        }
        tr.end(root);
        reps.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&reps))
}

/// Rows per second through Scan → sink and Scan → Filter → sink over
/// LINEITEM. The first hands Arc'd column slices to the sink and touches no
/// row (about a millisecond for 600 k rows); the second reads one column of
/// every row and compacts the survivors, the least any query does per row.
fn floors(ready: &Ready, tr: &mut Tracer) -> Result<(f64, f64)> {
    let rows = ready.data.table_rows("lineitem")? as f64;
    let plans = adapter::floor_queries(&ready.data)?;
    let mut rates = [0.0; 2];
    for ((plan, rate), name) in plans
        .iter()
        .zip(&mut rates)
        .zip(["engine.scan_floor", "engine.filter_floor"])
    {
        let mut secs = Vec::new();
        for _ in 0..FLOOR_REPS {
            let t = Instant::now();
            tr.scope(name, None, None, || {
                let spec = RunSpec::timed(Strategy::Baseline, 1, Source::Local);
                adapter::run(&ready.data, plan, spec)
            })?;
            secs.push(t.elapsed().as_secs_f64());
        }
        *rate = rows / median(&secs);
    }
    Ok((rates[0], rates[1]))
}

/// Cost-based AIP that decides but can never build (§VI-A) over Baseline,
/// on the workload's queries, local and serial: what the controller's
/// bookkeeping costs when it buys nothing.
fn decision_overhead(w: &Workload, ready: &Ready, tr: &mut Tracer) -> Result<f64> {
    let mut timed = |strategy: Strategy, decide_only: bool, name: &str| -> Result<f64> {
        let t = Instant::now();
        for id in w.queries() {
            tr.scope(name, None, None, || {
                let spec = RunSpec {
                    decide_only,
                    ..RunSpec::timed(strategy, 1, Source::Local)
                };
                adapter::run(&ready.data, ready.query(id), spec)
            })?;
        }
        Ok(t.elapsed().as_secs_f64())
    };
    let (mut base, mut decide) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        base.push(timed(Strategy::Baseline, false, "engine.run_query")?);
        decide.push(timed(Strategy::CostBased, true, "core.decide_only")?);
    }
    Ok(ratio(median(&decide), median(&base)))
}

/// Everything a traced run measures beyond its passes.
pub fn measure(
    w: &Workload,
    ready: &Ready,
    passes: &[Pass],
    timed: &Timed,
    tr: &mut Tracer,
) -> Result<Layers> {
    tr.enabled = true;
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall_s)
        .collect();
    let traced_wall: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let over = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&adapter::Outcome) -> u64| -> f64 {
        traced.iter().map(|p| p.sum(f)).sum::<u64>() as f64
    };

    // sip-engine (and whichever layer the cell enters first): the spans
    // around the execution calls, summed per traced pass.
    let mut exec_by_pass = std::collections::BTreeMap::<u32, f64>::new();
    for s in tr.spans() {
        if let (Some(p), true) = (s.pass, s.name != "harness.pass") {
            *exec_by_pass.entry(p).or_default() += (s.end_ns - s.start_ns) as f64 / 1e9;
        }
    }
    let exec_s = median(&exec_by_pass.values().copied().collect::<Vec<_>>());

    let plan_ms = plan_ms(w, ready, tr)?;
    let (scan_floor, filter_floor) = floors(ready, tr)?;
    let kernels = tr.scope("common.kernels", None, None, || {
        adapter::kernel_rates(&ready.data)
    })?;
    let decision = if w.uses_aip() {
        decision_overhead(w, ready, tr)?
    } else {
        0.0
    };

    // sip-parallel: the same cells at dop 1 over the passes at dop 2.
    let (dop2_speedup, route_skew) = if w.uses_dop() {
        let serial: Vec<f64> = (0..PROBE_REPS)
            .map(|_| pass(w, ready, tr, u32::MAX, &|r| r.dop = 1).wall_s)
            .collect();
        let skews: Vec<f64> = traced
            .iter()
            .flat_map(|p| &p.cells)
            .filter_map(|c| c.outcome.as_ref())
            .filter(|o| !o.routed.is_empty())
            .map(|o| {
                let max = *o.routed.iter().max().expect("non-empty") as f64;
                let mean = o.routed.iter().sum::<u64>() as f64 / o.routed.len() as f64;
                ratio(max, mean)
            })
            .collect();
        (ratio(median(&serial), median(&traced_wall)), median(&skews))
    } else {
        (0.0, 0.0)
    };

    // The program's own account of where operator threads spent their
    // time, from one extra pass at TraceLevel::Ops.
    let ops = pass(w, ready, tr, u32::MAX, &|r| r.program_trace = true);
    let phase_ns: Vec<u64> = (0..PHASE_NAMES.len())
        .map(|i| ops.sum(|o| o.phase_nanos[i]))
        .collect();
    let all_ns: u64 = phase_ns.iter().sum();
    let program_phase_share = PHASE_NAMES
        .iter()
        .zip(&phase_ns)
        .map(|(&name, &ns)| (name, ratio(ns as f64, all_ns as f64)))
        .collect();

    let failed = ready.failed + timed.failed;
    let attempted = ready.attempted + timed.attempted;
    let latency_total: f64 = traced
        .iter()
        .flat_map(|p| &p.cells)
        .map(|c| c.latency_s)
        .sum();
    let link_floor_total: f64 = traced
        .iter()
        .flat_map(|p| &p.cells)
        .filter_map(|c| c.outcome.as_ref())
        .map(|o| o.link_floor_s)
        .sum();

    let values = vec![
        (
            "datagen_rows_per_s",
            ratio(ready.data.total_rows() as f64, ready.datagen_s),
        ),
        ("plan_ms", plan_ms),
        ("exec_s", exec_s),
        ("scan_floor_rows_per_s", scan_floor),
        ("filter_floor_rows_per_s", filter_floor),
        (
            "engine_over_floor",
            ratio(exec_s, ratio(ready.rows_offered as f64, filter_floor)),
        ),
        ("digest_mrows_per_s", kernels.digest_mrows_per_s),
        ("gather_mrows_per_s", kernels.gather_mrows_per_s),
        ("filter_mask_mrows_per_s", kernels.filter_mask_mrows_per_s),
        ("bloom_build_mkeys_per_s", kernels.bloom_build_mkeys_per_s),
        ("bloom_probe_mkeys_per_s", kernels.bloom_probe_mkeys_per_s),
        (
            "prune_ratio",
            ratio(total(&|o| o.dropped), total(&|o| o.probed)),
        ),
        ("filter_bytes", over(&|p| p.sum(|o| o.filter_bytes) as f64)),
        (
            "filters_injected",
            over(&|p| p.sum(|o| o.filters_injected) as f64),
        ),
        (
            "filters_useful_ratio",
            ratio(total(&|o| o.filters_useful), total(&|o| o.filters_injected)),
        ),
        ("decision_overhead_ratio", decision),
        ("dop2_speedup", dop2_speedup),
        ("route_skew", route_skew),
        (
            "shipped_mb",
            over(&|p| p.sum(|o| o.shipped_bytes) as f64 / MB),
        ),
        ("link_share", ratio(link_floor_total, latency_total)),
        ("query_p90_ms", timed.query_p90_ms),
        ("verify_s", ready.verify_s),
        (
            "trace_overhead_ratio",
            ratio(median(&traced_wall), median(&untraced)),
        ),
        ("failed_ratio", ratio(failed as f64, attempted as f64)),
    ];
    Ok(Layers {
        values,
        program_phase_share,
    })
}
