//! Running one workload: set-up with the oracle gate, timed passes, and the
//! end-to-end metrics computed from them.

use crate::adapter::{self, Data, Outcome, Query, Result, RunSpec, Source};
use crate::stats::{median, percentile, Summary};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{Cell, Workload};
use std::time::Instant;

/// How long to measure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Budget {
    /// Start passes until this many seconds of passes have run.
    Seconds(f64),
    /// Exactly this many passes.
    Passes(u32),
}

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    pub sf: f64,
    pub budget: Budget,
}

/// A workload set up and verified, ready for timed passes.
pub struct Ready {
    pub data: Data,
    /// Parallel to `Workload::queries()`.
    pub queries: Vec<(&'static str, Query)>,
    /// Oracle row count per cell.
    pub expected_rows: Vec<u64>,
    /// Base-table rows one pass offers its scans.
    pub rows_offered: u64,
    pub setup_s: f64,
    pub datagen_s: f64,
    /// Oracle runs plus one collected run per cell.
    pub verify_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Ready {
    pub fn query(&self, id: &str) -> &Query {
        &self
            .queries
            .iter()
            .find(|(q, _)| *q == id)
            .expect("every cell's query was built during set-up")
            .1
    }
}

fn spec(w: &Workload, cell: &Cell, collect_rows: bool) -> RunSpec {
    RunSpec {
        collect_rows,
        ..RunSpec::timed(cell.strategy, cell.dop, w.source)
    }
}

/// The layer a cell's call enters first, as a span name.
fn exec_span(run: &RunSpec) -> &'static str {
    match (run.source, run.dop) {
        (Source::Remote, _) => "net.run_distributed",
        (_, dop) if dop > 1 => "parallel.run_query_dop",
        _ => "engine.run_query",
    }
}

/// Generate the catalog from the seed, build every query, and check every
/// distinct cell against the oracle: multiset equality on collected rows.
/// A cell that errors or diverges is counted as failed, not fatal.
pub fn setup(w: &Workload, cfg: &Config, tr: &mut Tracer) -> Result<Ready> {
    let start = Instant::now();
    let root = tr.begin("harness.setup", None, None);
    let data = tr.scope("data.generate", root, None, || {
        adapter::generate(cfg.sf, cfg.seed)
    })?;
    let datagen_s = start.elapsed().as_secs_f64();

    let mut queries = Vec::new();
    for id in w.queries() {
        let q = tr.scope("queries.build_query", root, None, || {
            adapter::build_query(&data, id)
        })?;
        queries.push((id, q));
    }

    let verify_start = Instant::now();
    let mut rows_by_query = Vec::new();
    let mut offered_by_query = Vec::new();
    for (_, q) in &queries {
        let rows = tr.scope("engine.execute_oracle", root, None, || {
            adapter::oracle(&data, q)
        })?;
        rows_by_query.push(rows);
        offered_by_query.push(adapter::rows_offered(&data, q)?);
    }
    let mut ready = Ready {
        data,
        queries,
        expected_rows: Vec::new(),
        rows_offered: 0,
        setup_s: 0.0,
        datagen_s,
        verify_s: 0.0,
        attempted: 0,
        failed: 0,
    };
    for cell in &w.cells {
        let qi = ready
            .queries
            .iter()
            .position(|(id, _)| *id == cell.query)
            .expect("queries() lists every cell's query");
        let expected = &rows_by_query[qi];
        ready.expected_rows.push(expected.len() as u64);
        ready.rows_offered += offered_by_query[qi];
        ready.attempted += 1;
        let run = spec(w, cell, true);
        let got = tr.scope(exec_span(&run), root, None, || {
            adapter::run(&ready.data, &ready.queries[qi].1, run)
        });
        match got {
            Ok(out) if out.rows == *expected => {}
            Ok(out) => {
                ready.failed += 1;
                eprintln!(
                    "sipbench: {} {}: result differs from the oracle ({} rows, oracle {})",
                    w.name,
                    cell.label(),
                    out.rows.len(),
                    expected.len()
                );
            }
            Err(e) => {
                ready.failed += 1;
                eprintln!("sipbench: {} {}: {e}", w.name, cell.label());
            }
        }
    }
    ready.verify_s = verify_start.elapsed().as_secs_f64();
    tr.end(root);
    ready.setup_s = start.elapsed().as_secs_f64();
    Ok(ready)
}

/// One timed execution of a cell.
pub struct CellSample {
    pub latency_s: f64,
    /// `None` when the cell errored.
    pub outcome: Option<Outcome>,
    pub ok: bool,
}

pub struct Pass {
    pub wall_s: f64,
    /// Recorded with the tracer on.
    pub traced: bool,
    pub cells: Vec<CellSample>,
}

impl Pass {
    pub fn sum(&self, f: impl Fn(&Outcome) -> u64) -> u64 {
        self.cells
            .iter()
            .filter_map(|c| c.outcome.as_ref())
            .map(f)
            .sum()
    }
}

/// Run every cell of the workload once, in order, rows not collected;
/// a cell is correct when it returns the oracle-verified row count.
pub fn pass(
    w: &Workload,
    ready: &Ready,
    tr: &mut Tracer,
    id: u32,
    edit: &dyn Fn(&mut RunSpec),
) -> Pass {
    let start = Instant::now();
    let root: SpanId = tr.begin("harness.pass", None, Some(id));
    let mut cells = Vec::with_capacity(w.cells.len());
    for (cell, &expected) in w.cells.iter().zip(&ready.expected_rows) {
        let mut run = spec(w, cell, false);
        edit(&mut run);
        let span = tr.begin(exec_span(&run), root, Some(id));
        let t = Instant::now();
        let got = adapter::run(&ready.data, ready.query(cell.query), run);
        let latency_s = t.elapsed().as_secs_f64();
        tr.end(span);
        let sample = match got {
            Ok(out) => CellSample {
                latency_s,
                ok: out.rows_out == expected,
                outcome: Some(out),
            },
            Err(e) => {
                eprintln!("sipbench: {} {}: {e}", w.name, cell.label());
                CellSample {
                    latency_s,
                    ok: false,
                    outcome: None,
                }
            }
        };
        if !sample.ok {
            if let Some(out) = &sample.outcome {
                eprintln!(
                    "sipbench: {} {}: {} rows out, oracle {expected}",
                    w.name,
                    cell.label(),
                    out.rows_out
                );
            }
        }
        cells.push(sample);
    }
    tr.end(root);
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        traced: tr.enabled,
        cells,
    }
}

/// Timed passes until the budget is spent. `trace_odd` turns the tracer on
/// for every second pass, so a traced run measures its own overhead.
pub fn passes(
    w: &Workload,
    ready: &Ready,
    budget: Budget,
    tr: &mut Tracer,
    trace_odd: bool,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut done: Vec<Pass> = Vec::new();
    loop {
        let n = done.len() as u32;
        let more = match budget {
            Budget::Passes(p) => n < p,
            Budget::Seconds(s) => start.elapsed().as_secs_f64() < s,
        };
        // A traced run needs one pass of each kind.
        if !(more || n == 0 || (trace_odd && n == 1)) {
            return done;
        }
        tr.enabled = trace_odd && n % 2 == 1;
        done.push(pass(w, ready, tr, n, &|_| {}));
    }
}

/// The timed part of a run, reduced to what the end-to-end metrics need.
pub struct Timed {
    pub attempted: u64,
    pub failed: u64,
    pub pass_s: Summary,
    /// Over every cell latency of every pass.
    pub latency_ms: Summary,
    pub query_p90_ms: f64,
    pub rows_per_s: f64,
    pub peak_state_mb: f64,
    /// Per cell: latency (ms) over the passes, and median peak state (MB).
    pub per_cell: Vec<(Summary, f64)>,
}

pub const MB: f64 = 1024.0 * 1024.0;

pub fn reduce(w: &Workload, ready: &Ready, passes: &[Pass]) -> Timed {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.cells.iter().map(|c| c.latency_s * 1e3))
        .collect();
    let state: Vec<f64> = passes
        .iter()
        .map(|p| p.sum(|o| o.peak_state_bytes) as f64 / MB)
        .collect();
    let per_cell = (0..w.cells.len())
        .map(|i| {
            let lat: Vec<f64> = passes.iter().map(|p| p.cells[i].latency_s * 1e3).collect();
            let st: Vec<f64> = passes
                .iter()
                .filter_map(|p| p.cells[i].outcome.as_ref())
                .map(|o| o.peak_state_bytes as f64 / MB)
                .collect();
            (Summary::of(&lat), median(&st))
        })
        .collect();
    let pass_s = Summary::of(&walls);
    Timed {
        attempted: latencies.len() as u64,
        failed: passes
            .iter()
            .flat_map(|p| &p.cells)
            .filter(|c| !c.ok)
            .count() as u64,
        pass_s,
        latency_ms: Summary::of(&latencies),
        query_p90_ms: percentile(&latencies, 90.0),
        rows_per_s: ready.rows_offered as f64 / pass_s.median,
        peak_state_mb: median(&state),
        per_cell,
    }
}
