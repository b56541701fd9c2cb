//! Per-figure experiment runners.

use crate::measure::{ci95, mean, measure, ExperimentConfig, Measurement};
use sip_common::json::json_str;
use sip_common::trace::{Phase, N_PHASES};
use sip_common::Result;
use sip_core::{AipConfig, FeedForward, QuerySpec, Strategy};
use sip_data::{generate, Catalog, TpchConfig};
use sip_engine::{execute, DelayModel, ExecOptions};
use sip_filter::AipSetKind;
use sip_net::{run_distributed, LinkSpec, RemoteConfig};
use sip_plan::{PredicateIndex, SourcePredGraph};
use sip_queries::{all_queries, build_query, query_def};
use std::fmt::Write as _;
use std::sync::Arc;

/// One measured cell of a figure.
#[derive(Clone, Debug, Default)]
pub struct ReportRow {
    /// Query id (`Q1A`...).
    pub query: String,
    /// Strategy name.
    pub strategy: String,
    /// Mean seconds.
    pub secs: f64,
    /// 95% CI half-width, seconds.
    pub ci: f64,
    /// Peak intermediate state, MB.
    pub state_mb: f64,
    /// Output rows.
    pub rows: u64,
    /// Extra column (filters injected, bytes shipped, ...).
    pub extra: String,
    /// Mean seconds per execution phase from `sip-trace`
    /// ([`sip_common::trace::Phase::ALL`] order); all zero for cells
    /// measured outside the traced `measure` path.
    pub phase_secs: [f64; N_PHASES],
}

/// A rendered figure.
#[derive(Clone, Debug)]
pub struct FigureReport {
    /// Figure id (`fig5`...).
    pub id: String,
    /// Title echoing the paper's caption.
    pub title: String,
    /// Measured cells.
    pub rows: Vec<ReportRow>,
    /// Free-form notes (deviations, expectations).
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Render as machine-readable JSON (the `repro --json <dir>` artifact,
    /// one `BENCH_<id>.json` per figure) so the perf trajectory can be
    /// tracked across PRs: figure id, the experiment config, and one point
    /// per measured cell.
    pub fn to_json(&self, config: &ExperimentConfig) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"figure\": {},", json_str(&self.id));
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(
            out,
            "  \"config\": {{\"scale_factor\": {}, \"seed\": {}, \"repeats\": {}, \
\"batch_size\": {}, \"channel_capacity\": {}, \"dop\": {}, \"retries\": {}}},",
            config.scale_factor,
            config.seed,
            config.repeats,
            config.batch_size,
            config.channel_capacity,
            config.dop,
            config.retries
        );
        out.push_str("  \"phase_names\": [");
        for (i, p) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(p.name()));
        }
        out.push_str("],\n");
        out.push_str("  \"points\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let mut phases = String::from("[");
            for (j, s) in r.phase_secs.iter().enumerate() {
                if j > 0 {
                    phases.push_str(", ");
                }
                let _ = write!(phases, "{s:.6}");
            }
            phases.push(']');
            let _ = write!(
                out,
                "    {{\"query\": {}, \"strategy\": {}, \"secs\": {:.6}, \"ci95\": {:.6}, \
\"state_mb\": {:.3}, \"rows\": {}, \"extra\": {}, \"phase_secs\": {}}}",
                json_str(&r.query),
                json_str(&r.strategy),
                r.secs,
                r.ci,
                r.state_mb,
                r.rows,
                json_str(&r.extra),
                phases
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(n));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Render as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(
            out,
            "| query | strategy | time (s) | ±95% | state (MB) | rows | notes |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "| {} | {} | {:.3} | {:.3} | {:.2} | {} | {} |",
                r.query, r.strategy, r.secs, r.ci, r.state_mb, r.rows, r.extra
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n> {n}");
        }
        out
    }
}

/// The experiment harness: one uniform and one skewed data set plus config.
pub struct Harness {
    /// Experiment parameters.
    pub config: ExperimentConfig,
    uniform: Catalog,
    skewed: Catalog,
}

const FIG5_QUERIES: [&str; 8] = ["Q3A", "Q3B", "Q3D", "Q3E", "Q1A", "Q1B", "Q1D", "Q1E"];
const FIG6_QUERIES: [&str; 5] = ["Q2A", "Q2B", "Q2C", "Q2D", "Q2E"];

impl Harness {
    /// Generate both data sets.
    pub fn new(config: ExperimentConfig) -> Result<Self> {
        let uniform = generate(&TpchConfig {
            scale_factor: config.scale_factor,
            seed: config.seed,
            zipf_z: 0.0,
        })?;
        let skewed = generate(&TpchConfig {
            scale_factor: config.scale_factor,
            seed: config.seed,
            zipf_z: 0.5,
        })?;
        Ok(Harness {
            config,
            uniform,
            skewed,
        })
    }

    fn catalog_for(&self, id: &str) -> Result<&Catalog> {
        Ok(if query_def(id)?.skewed_data {
            &self.skewed
        } else {
            &self.uniform
        })
    }

    fn run_set(
        &self,
        queries: &[&str],
        strategies: &[Strategy],
        delays: &[(&str, DelayModel)],
    ) -> Result<Vec<ReportRow>> {
        let mut rows = Vec::new();
        for &id in queries {
            let catalog = self.catalog_for(id)?;
            let spec = build_query(id, catalog)?;
            for &strategy in strategies {
                let m = measure(
                    &spec,
                    catalog,
                    strategy,
                    &self.config,
                    &AipConfig::paper(),
                    delays,
                )?;
                rows.push(to_row(id, strategy.name(), &m));
            }
        }
        Ok(rows)
    }

    /// Figures 5 (times) and 7 (space): TPC-H Q2 + IBM variants.
    pub fn fig5_7(&self) -> Result<(FigureReport, FigureReport)> {
        let rows = self.run_set(&FIG5_QUERIES, &Strategy::ALL, &[])?;
        Ok(split_time_space(
            rows,
            (
                "fig5",
                "Running times: variations on TPC-H Query 2 and the IBM query",
            ),
            (
                "fig7",
                "Space usage: variations on TPC-H Query 2 and IBM variant",
            ),
            vec![],
        ))
    }

    /// Figures 6 (times) and 8 (space): TPC-H Q17 variants.
    pub fn fig6_8(&self) -> Result<(FigureReport, FigureReport)> {
        let rows = self.run_set(&FIG6_QUERIES, &Strategy::ALL, &[])?;
        Ok(split_time_space(
            rows,
            ("fig6", "Running times: variations on TPC-H Query 17"),
            ("fig8", "Space usage: variations on TPC-H Query 17"),
            vec![],
        ))
    }

    /// Figures 9 (times) and 11 (space): Q2/IBM variants with PARTSUPP
    /// delayed 100 ms + 5 ms per 1000 tuples.
    pub fn fig9_11(&self) -> Result<(FigureReport, FigureReport)> {
        let delays = [("partsupp", DelayModel::paper_delayed())];
        let rows = self.run_set(&FIG5_QUERIES, &Strategy::ALL, &delays)?;
        Ok(split_time_space(
            rows,
            (
                "fig9",
                "Running times with delayed PARTSUPP: TPC-H Query 2 and IBM variants",
            ),
            (
                "fig11",
                "Space usage under delay: TPC-H Query 2 and IBM variants",
            ),
            vec![],
        ))
    }

    /// Figures 10 (times) and 12 (space): Q17 variants under delay. Q17's
    /// plans contain no PARTSUPP, so its large input (LINEITEM) is delayed
    /// with the same model — preserving the experiment's intent.
    pub fn fig10_12(&self) -> Result<(FigureReport, FigureReport)> {
        let delays = [("lineitem", DelayModel::paper_delayed())];
        let rows = self.run_set(&FIG6_QUERIES, &Strategy::ALL, &delays)?;
        Ok(split_time_space(
            rows,
            (
                "fig10",
                "Running times with delayed large input: TPC-H Query 17 variants",
            ),
            ("fig12", "Space usage under delay: TPC-H Query 17 variants"),
            vec!["Q17 has no PARTSUPP; LINEITEM (its large input) is delayed instead.".into()],
        ))
    }

    /// Figures 13 (times) and 14 (space): join queries Q4/Q5 locally and
    /// Q3C/Q1C with PARTSUPP fetched over a simulated 100 Mbps link.
    pub fn fig13_14(&self) -> Result<(FigureReport, FigureReport)> {
        let strategies = [
            Strategy::Baseline,
            Strategy::FeedForward,
            Strategy::CostBased,
        ];
        let mut rows = self.run_set(&["Q4A", "Q5A", "Q4B", "Q5B"], &strategies, &[])?;
        for id in ["Q3C", "Q1C"] {
            let catalog = self.catalog_for(id)?;
            let spec = build_query(id, catalog)?;
            let remote = RemoteConfig::new(
                query_def(id)?.remote_table.expect("distributed query"),
                LinkSpec::lan_100mbps(),
            );
            for strategy in strategies {
                let mut m = self.measure_distributed(&spec, catalog, strategy, &remote)?;
                m.query = id.to_string();
                rows.push(m);
            }
        }
        Ok(split_time_space(
            rows,
            (
                "fig13",
                "Running times for join and distributed join queries",
            ),
            ("fig14", "Space usage for join and distributed join queries"),
            vec!["Q3C/Q1C fetch PARTSUPP over a simulated 100 Mbps link.".into()],
        ))
    }

    fn measure_distributed(
        &self,
        spec: &QuerySpec,
        catalog: &Catalog,
        strategy: Strategy,
        remote: &RemoteConfig,
    ) -> Result<ReportRow> {
        let mut secs = Vec::new();
        let mut state = Vec::new();
        let mut bytes = 0u64;
        let mut rows_out = 0u64;
        for _ in 0..self.config.repeats {
            let opts = self.config.exec_options()?;
            let run = run_distributed(spec, catalog, strategy, opts, &AipConfig::paper(), remote)?;
            secs.push(run.output.metrics.wall_time.as_secs_f64());
            state.push(run.output.metrics.peak_state_mb());
            bytes = run.net.total_bytes();
            rows_out = run.output.metrics.rows_out;
        }
        Ok(ReportRow {
            query: "dist".into(),
            strategy: strategy.name().into(),
            secs: mean(&secs),
            ci: ci95(&secs),
            state_mb: mean(&state),
            rows: rows_out,
            extra: format!("{:.2} MB shipped", bytes as f64 / 1e6),
            ..Default::default()
        })
    }

    /// Table I: the query catalog.
    pub fn table1(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### Table I — Queries used in experiments\n");
        for def in all_queries() {
            let _ = writeln!(out, "**{}** ({}, {})", def.id, def.family, def.description);
            let _ = writeln!(out, "```sql\n{}\n```", def.sql);
        }
        out
    }

    /// Fig. 1: the running example's plan.
    pub fn fig1(&self) -> Result<String> {
        let spec = build_query("EX", &self.uniform)?;
        let phys = spec.lower(&self.uniform, Strategy::Baseline)?;
        Ok(format!(
            "### Fig. 1 — plan for the running example\n\n```\n{}\n```\n",
            phys.display()
        ))
    }

    /// Fig. 2: AIP Manager structures for the running example — the
    /// source-predicate graph and the registry after a feed-forward run.
    pub fn fig2(&self) -> Result<String> {
        let spec = build_query("EX", &self.uniform)?;
        let graph = SourcePredGraph::build(&spec.plan, &spec.attrs);
        let eq = PredicateIndex::build(&spec.plan).eq;
        let ff = FeedForward::new(eq, AipConfig::paper());
        let phys = Arc::new(spec.lower(&self.uniform, Strategy::FeedForward)?);
        let _ = execute(phys, ff.clone(), ExecOptions::default())?;
        Ok(format!(
            "### Fig. 2 — AIP Manager structures for the running example\n\n```\n{}\n{}```\n",
            graph.display(),
            ff.registry().display()
        ))
    }

    /// §VI-A overhead measurement: cost-based bookkeeping with set
    /// construction priced out (every candidate evaluated, none built),
    /// compared against the baseline. The paper reports ≈4% (Q1A) and
    /// ≈2.5% (Q2A).
    pub fn overhead(&self) -> Result<FigureReport> {
        let mut rows = Vec::new();
        for id in ["Q1A", "Q2A"] {
            let catalog = self.catalog_for(id)?;
            let spec = build_query(id, catalog)?;
            let base = measure(
                &spec,
                catalog,
                Strategy::Baseline,
                &self.config,
                &AipConfig::paper(),
                &[],
            )?;
            let reject_all = AipConfig {
                ship_cost_per_byte: 1e15, // price every set out of existence
                ..AipConfig::paper()
            };
            let cb = measure(
                &spec,
                catalog,
                Strategy::CostBased,
                &self.config,
                &reject_all,
                &[],
            )?;
            let overhead = (cb.secs_mean / base.secs_mean - 1.0) * 100.0;
            rows.push(to_row(id, "Baseline", &base));
            let mut r = to_row(id, "CB (decisions only)", &cb);
            r.extra = format!("overhead {overhead:+.1}%");
            rows.push(r);
        }
        Ok(FigureReport {
            id: "overhead".into(),
            title: "§VI-A: cost-estimation overhead with no beneficial filters".into(),
            rows,
            notes: vec!["Paper reports ≈4% (Q1A) and ≈2.5% (Q2A).".into()],
        })
    }

    /// Hot-loop tax micro-figure: the injected-filter tap probe's batch
    /// loop (`TapKernel::probe_chain` over a Bloom + exact-hash chain)
    /// bare, against the same loop plus what every operator pays per batch
    /// when nothing is asked of it.
    ///
    /// * `trace-gate` — per-batch sip-trace spans with tracing off;
    /// * `cancel-gate` — the per-batch `CancelToken` check.
    ///
    /// Both are interleaved best-of, and CI holds each variant within 2% of
    /// its bare loop. Kernel throughput itself is sipbench's per-layer
    /// metrics (`digest_mrows_per_s`, `bloom_probe_mkeys_per_s`).
    pub fn kernels(&self) -> Result<FigureReport> {
        use sip_engine::{InjectedFilter, TapKernel};
        use sip_filter::AipSetBuilder;
        use std::hint::black_box;
        use std::sync::Arc as StdArc;
        use std::time::Instant;

        let batch = self.config.batch_size.max(1);
        let n_rows: usize = 1 << 17;
        let key_space = 10_000i64;
        // Join-output-shaped rows: key, payload int, payload string.
        let rows: Vec<sip_common::Row> = (0..n_rows as i64)
            .map(|i| {
                sip_common::Row::new(vec![
                    sip_common::Value::Int(i % key_space),
                    sip_common::Value::Int(i),
                    sip_common::Value::str("payload-string"),
                ])
            })
            .collect();
        // A realistic tap stack over the key column: a Bloom filter keeping
        // roughly half the key domain, stacked with an exact hash set.
        let build = |kind: AipSetKind, keys: std::ops::Range<i64>| {
            let mut b = AipSetBuilder::new(kind, (keys.end - keys.start) as usize, 0.05, 1);
            for k in keys {
                let key = vec![sip_common::Value::Int(k)];
                b.insert(sip_common::hash_key(&key), &key);
            }
            StdArc::new(b.finish())
        };
        let chain: Vec<StdArc<InjectedFilter>> = vec![
            StdArc::new(InjectedFilter::new(
                "bloom[k]",
                vec![0],
                build(AipSetKind::Bloom, 0..key_space / 2),
            )),
            StdArc::new(InjectedFilter::new(
                "hash[k]",
                vec![0],
                build(AipSetKind::Hash, 0..key_space / 4),
            )),
        ];
        let mut kernel = TapKernel::new();

        // --- Trace gate: the tap-probe batch loop bare vs the same loop
        // wrapped in per-batch sip-trace spans with tracing *off* — the
        // cost every operator pays on every batch when `--trace` is not
        // requested (one atomic-free level check per span; `begin` returns
        // 0 without reading the clock). Interleaved min-of-repeats so
        // ambient noise hits both variants equally; CI holds gated-off to
        // within 2% of untraced.
        let hub = sip_common::trace::TraceHub::new(sip_common::trace::TraceLevel::Off);
        let gate_reps = self.config.repeats.max(5);
        let mut untraced_best = f64::INFINITY;
        let mut gated_best = f64::INFINITY;
        let mut survivors = 0usize;
        for _ in 0..gate_reps {
            let t = Instant::now();
            for chunk in rows.chunks(batch) {
                kernel.begin(chunk.len());
                kernel.probe_chain(&chain, chunk);
                survivors += kernel.sel().len();
            }
            untraced_best = untraced_best.min(t.elapsed().as_secs_f64());

            let mut tr = hub.tracer(0, None);
            let t = Instant::now();
            for chunk in rows.chunks(batch) {
                let t0 = tr.begin();
                kernel.begin(chunk.len());
                kernel.probe_chain(&chain, chunk);
                survivors += kernel.sel().len();
                tr.end(Phase::TapProbe, t0);
            }
            gated_best = gated_best.min(t.elapsed().as_secs_f64());
            tr.flush();
        }
        let kept = black_box(survivors) / (2 * gate_reps);

        // --- Cancel gate: the same batch loop bare vs with the per-batch
        // CancelToken check every emitter now performs (one relaxed atomic
        // load per batch while no deadline is armed and nothing has
        // cancelled). Interleaved best-of like the trace gate; CI holds
        // checked to within 2% of unchecked.
        let token = sip_common::CancelToken::new();
        let mut unchecked_best = f64::INFINITY;
        let mut checked_best = f64::INFINITY;
        let mut survivors = 0usize;
        for _ in 0..gate_reps {
            let t = Instant::now();
            for chunk in rows.chunks(batch) {
                kernel.begin(chunk.len());
                kernel.probe_chain(&chain, chunk);
                survivors += kernel.sel().len();
            }
            unchecked_best = unchecked_best.min(t.elapsed().as_secs_f64());

            let t = Instant::now();
            for chunk in rows.chunks(batch) {
                if token.is_cancelled() {
                    break;
                }
                kernel.begin(chunk.len());
                kernel.probe_chain(&chain, chunk);
                survivors += kernel.sel().len();
            }
            checked_best = checked_best.min(t.elapsed().as_secs_f64());
        }
        black_box(survivors);

        let mrows = |secs: f64| n_rows as f64 / secs / 1e6;
        let cell = |name: &str, variant: &str, secs: f64, vs_bare: Option<f64>| ReportRow {
            query: name.into(),
            strategy: variant.into(),
            secs,
            ci: 0.0,
            state_mb: 0.0,
            rows: kept as u64,
            extra: match vs_bare {
                Some(r) => format!("{:.1} Mrows/s, bare/this {r:.2}x", mrows(secs)),
                None => format!("{:.1} Mrows/s", mrows(secs)),
            },
            ..Default::default()
        };
        Ok(FigureReport {
            id: "kernels".into(),
            title: format!(
                "hot-loop tax of disabled tracing and the cancel check ({n_rows} rows, \
batch {batch}, 2-filter tap, best of {gate_reps})"
            ),
            rows: vec![
                cell("trace-gate", "untraced", untraced_best, None),
                cell(
                    "trace-gate",
                    "gated-off",
                    gated_best,
                    Some(untraced_best / gated_best),
                ),
                cell("cancel-gate", "unchecked", unchecked_best, None),
                cell(
                    "cancel-gate",
                    "checked",
                    checked_best,
                    Some(unchecked_best / checked_best),
                ),
            ],
            notes: vec![
                "trace-gate = tap-probe batch loop bare vs wrapped in disabled sip-trace spans \
(TraceLevel::Off), interleaved best-of; the gated-off/untraced ratio bounds the tracing-off tax."
                    .into(),
                "cancel-gate = the same loop bare vs with the per-batch CancelToken check every \
emitter performs, interleaved best-of; the checked/unchecked ratio bounds the cancellation tax."
                    .into(),
            ],
        })
    }

    /// Recovery micro-figure: the fault-free tax of installing a
    /// `RetryPolicy`, and the wall-clock cost of an actually-recovered run.
    ///
    /// * `recovery-gate` — Q4A partition-parallel at the configured dop,
    ///   retry-off vs retry-on with **no faults injected**. Retry-on wraps
    ///   the run in the whole-run retry loop and arms the progress
    ///   watchdog (one extra thread that samples the operators' counters
    ///   once per stall quantum), so this cell prices the standing
    ///   overhead of recoverability. Interleaved best-of; the two should
    ///   be at parity, and CI holds retry-on within 1.5x of retry-off
    ///   plus a 50 ms absolute floor — a full dop-wide query on a shared
    ///   runner swings far more than the single-threaded kernel gates.
    /// * `recovered-run` — the same query with a bounded `Error` fault on
    ///   a scan (fires exactly once, plan-wide), healed below a budget of
    ///   3 attempts by re-running the whole query; wall clock vs the
    ///   fault-free retry-off best. Correctness is asserted inline before
    ///   any timing: healed rows must be byte-identical to the serial
    ///   oracle and the run must report `recovered`.
    pub fn recovery(&self) -> Result<FigureReport> {
        use sip_common::retry::RetryPolicy;
        use sip_engine::{
            canonical, execute_ctx, execute_oracle, ExecContext, FaultKind, FaultPlan, NoopMonitor,
        };
        use sip_parallel::partition_plan;
        use std::time::Instant;

        let dop = self.config.dop.max(2);
        let catalog = self.catalog_for("Q4A")?;
        let spec = build_query("Q4A", catalog)?;
        let phys = Arc::new(spec.lower(catalog, Strategy::Baseline)?);
        let expected = sip_engine::canonical(&execute_oracle(&phys)?);
        let (expanded, map) = partition_plan(&phys, dop)
            .map_err(|e| sip_common::SipError::Exec(format!("recovery: cannot partition: {e}")))?;
        let retry = RetryPolicy {
            stall_quantum: Some(std::time::Duration::from_millis(250)),
            ..RetryPolicy::with_attempts(3)
        };

        let run = |opts: ExecOptions| {
            sip_engine::run_with_recovery(opts, |o| {
                let ctx = ExecContext::new_partitioned(Arc::clone(&expanded), o, Arc::clone(&map));
                execute_ctx(ctx, Arc::new(NoopMonitor))
            })
        };
        // A fresh FaultPlan per run: the fire ledger is shared across the
        // *attempts* of one run (so the `times` budget holds through
        // retries) but must reset between repeats.
        let faulted = || FaultPlan::none().with_kind_fault_times("Scan", 0, FaultKind::Error, 1);

        // Correctness gate before any timing.
        {
            let mut o = self.config.exec_options()?;
            o.collect_rows = true;
            let out = run(o.with_retry(retry.clone()))?;
            if canonical(&out.rows) != expected {
                return Err(sip_common::SipError::Exec(
                    "recovery: fault-free retry-on run diverged from the oracle".into(),
                ));
            }
            let mut o = self.config.exec_options()?;
            o.collect_rows = true;
            let out = run(o.with_faults(faulted()).with_retry(retry.clone()))?;
            if canonical(&out.rows) != expected {
                return Err(sip_common::SipError::Exec(
                    "recovery: healed run diverged from the oracle (duplicate or lost rows)".into(),
                ));
            }
            if !out.metrics.recovered {
                return Err(sip_common::SipError::Exec(
                    "recovery: faulted run healed but did not report recovered".into(),
                ));
            }
        }

        // Interleaved best-of like the kernel gates: ambient noise hits
        // all three variants equally within each round.
        let reps = self.config.repeats.max(3);
        let mut off_best = f64::INFINITY;
        let mut on_best = f64::INFINITY;
        let mut healed_best = f64::INFINITY;
        let mut healed_attempts = 1u32;
        for _ in 0..reps {
            let mut o = self.config.exec_options()?;
            o.retry = None;
            let t = Instant::now();
            run(o)?;
            off_best = off_best.min(t.elapsed().as_secs_f64());

            let o = self.config.exec_options()?.with_retry(retry.clone());
            let t = Instant::now();
            run(o)?;
            on_best = on_best.min(t.elapsed().as_secs_f64());

            let o = self
                .config
                .exec_options()?
                .with_faults(faulted())
                .with_retry(retry.clone());
            let t = Instant::now();
            let out = run(o)?;
            healed_best = healed_best.min(t.elapsed().as_secs_f64());
            healed_attempts = healed_attempts.max(out.metrics.attempts);
        }

        let n_rows = expected.len() as u64;
        let cell = |name: &str, variant: &str, secs: f64, extra: String| ReportRow {
            query: name.into(),
            strategy: variant.into(),
            secs,
            ci: 0.0,
            state_mb: 0.0,
            rows: n_rows,
            extra,
            ..Default::default()
        };
        Ok(FigureReport {
            id: "recovery".into(),
            title: format!(
                "recovery: fault-free retry overhead and healed-run cost (Q4A, dop {dop}, \
best of {reps})"
            ),
            rows: vec![
                cell("recovery-gate", "retry-off", off_best, String::new()),
                cell(
                    "recovery-gate",
                    "retry-on",
                    on_best,
                    format!("overhead {:+.1}%", (on_best / off_best - 1.0) * 100.0),
                ),
                cell("recovered-run", "fault-free", off_best, String::new()),
                cell(
                    "recovered-run",
                    "healed",
                    healed_best,
                    format!(
                        "{:.2}x fault-free, run attempts {healed_attempts}",
                        healed_best / off_best
                    ),
                ),
            ],
            notes: vec![
                "recovery-gate = Q4A partition-parallel, no faults, retry-off vs retry-on \
(whole-run retry loop + progress watchdog armed, 250 ms stall quantum), interleaved \
best-of; the on/off ratio bounds the standing cost of recoverability — parity expected, \
CI-guarded at 1.5x plus a 50 ms floor to ride out scheduler noise on oversubscribed \
runners."
                    .into(),
                "recovered-run = the same query with a bounded Error fault on a scan (fires \
once), healed below a 3-attempt budget by re-running the whole query; rows byte-checked \
against the serial oracle before timing. attempts counts whole-run executions (2 = one failed \
attempt plus the healing re-run)."
                    .into(),
            ],
        })
    }

    /// `repro --profile <dir>`: schema-checked [`QueryProfile`] artifacts
    /// plus the matching EXPLAIN ANALYZE trees, both rendered from the
    /// same frozen profile so they cannot disagree.
    ///
    /// Two workloads, all traced at span level:
    ///
    /// * Q4A (the TPC-H Q5 family's many-way join) under feed-forward AIP
    ///   at dop 1 / 2 / 4 — the per-op phase breakdown across the serial
    ///   and partition-parallel executors;
    /// * a Zipf(1.5)-keyed fact ⋈ dimension join at the top dop — the
    ///   skewed-routing exemplar: hash routing puts the hot key on one
    ///   reader, and the profile's routing histograms and `skew` block
    ///   show it.
    ///
    /// Returns the rendered text and one `(file name, JSON)` pair per
    /// profile (`PROFILE_*.json`).
    pub fn profile(&self) -> Result<(String, Vec<(String, String)>)> {
        use sip_core::FeedForward;
        use sip_engine::{explain_analyze_profiled, QueryProfile, TraceLevel};
        use sip_plan::QueryBuilder;

        let mut text = String::new();
        let mut artifacts: Vec<(String, String)> = Vec::new();

        // --- Q4A under feed-forward AIP, dop 1/2/4 ---
        let catalog = self.catalog_for("Q4A")?;
        let spec = build_query("Q4A", catalog)?;
        let phys = Arc::new(spec.lower(catalog, Strategy::FeedForward)?);
        let mut dops = vec![1u32];
        let mut d = 2;
        while d <= self.config.dop.max(1) && dops.len() < 3 {
            dops.push(d);
            d *= 2;
        }
        for &dop in &dops {
            let eq = PredicateIndex::build(&spec.plan).eq;
            let monitor = FeedForward::new(eq, AipConfig::paper());
            let opts = self.config.exec_options()?.with_trace(TraceLevel::Spans);
            let (report_plan, out, map) = if dop <= 1 {
                let out = execute(Arc::clone(&phys), monitor, opts)?;
                (Arc::clone(&phys), out, None)
            } else {
                // The expansion is deterministic: plan once for the tree,
                // execute the same logical plan for the numbers.
                let exec = sip_parallel::PartitionedExec::new(dop);
                let expanded = match exec.plan(&phys) {
                    Ok((expanded, _)) => expanded,
                    Err(_) => Arc::clone(&phys), // no safe parallel region: serial fallback
                };
                let (out, map) = exec.execute(Arc::clone(&phys), monitor, opts)?;
                (expanded, out, map)
            };
            let profile = QueryProfile::from_run(&report_plan, &out.metrics, map.as_deref());
            let _ = writeln!(text, "## Q4A FeedForward dop={dop}\n");
            text.push_str(&explain_analyze_profiled(
                &report_plan,
                &out.metrics,
                map.as_deref(),
            ));
            text.push('\n');
            artifacts.push((format!("PROFILE_q4a_dop{dop}.json"), profile.to_json()));
        }

        // --- Skewed-routing exemplar: a zipf=1.5 join, hash-routed ---
        {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            use sip_common::{DataType, Field, Row, Schema, Value};
            use sip_data::{Table, Zipf};
            use sip_engine::NoopMonitor;
            use sip_parallel::PartitionedExec;

            const KEYS: u64 = 64;
            let n_rows = ((2_000_000.0 * self.config.scale_factor) as usize).max(2_000);
            let zipf = Zipf::new(KEYS, 1.5);
            let mut rng = StdRng::seed_from_u64(self.config.seed ^ 1.5f64.to_bits());
            let int = |n: &str| Field::new(n, DataType::Int);
            let facts: Vec<Row> = (0..n_rows)
                .map(|i| {
                    Row::new(vec![
                        Value::Int(zipf.sample(&mut rng) as i64),
                        Value::Int(i as i64),
                    ])
                })
                .collect();
            let mut catalog = sip_data::Catalog::new();
            catalog.add(Table::new(
                "fact",
                Schema::new(vec![int("fb"), int("pay")]),
                vec![],
                vec![],
                facts,
            )?);
            catalog.add(Table::new(
                "dim",
                Schema::new(vec![int("hb")]),
                vec![],
                vec![],
                (1..=KEYS as i64)
                    .map(|k| Row::new(vec![Value::Int(k)]))
                    .collect(),
            )?);
            let mut q = QueryBuilder::new(&catalog);
            let f = q.scan("fact", "f", &["fb", "pay"])?;
            let h = q.scan("dim", "h", &["hb"])?;
            let j = q.join(f, h, &[("f.fb", "h.hb")])?;
            let zipf_join = Arc::new(sip_engine::lower(&j.into_plan(), q.into_attrs(), &catalog)?);
            let dop = self.config.dop.max(2);
            let exec = PartitionedExec::new(dop);
            let expanded = match exec.plan(&zipf_join) {
                Ok((expanded, _)) => expanded,
                Err(e) => {
                    return Err(sip_common::SipError::Exec(format!(
                        "zipf profile plan failed: {e}"
                    )))
                }
            };
            let opts = self.config.exec_options()?.with_trace(TraceLevel::Spans);
            let (out, map) = exec.execute(Arc::clone(&zipf_join), Arc::new(NoopMonitor), opts)?;
            let profile = QueryProfile::from_run(&expanded, &out.metrics, map.as_deref());
            let _ = writeln!(
                text,
                "## zipf=1.5 join, dop={dop} ({n_rows} rows, {KEYS} keys)\n"
            );
            text.push_str(&explain_analyze_profiled(
                &expanded,
                &out.metrics,
                map.as_deref(),
            ));
            artifacts.push((format!("PROFILE_zipf_dop{dop}.json"), profile.to_json()));
        }

        Ok((text, artifacts))
    }

    /// §V preliminary experiment: Bloom-filter vs hash-set AIP sets.
    pub fn ablation_sets(&self) -> Result<FigureReport> {
        let mut rows = Vec::new();
        for id in ["Q1A", "Q2A"] {
            let catalog = self.catalog_for(id)?;
            let spec = build_query(id, catalog)?;
            for (label, cfg) in [
                ("FF/bloom", AipConfig::paper()),
                ("FF/hash", AipConfig::hash_sets()),
            ] {
                let m = measure(
                    &spec,
                    catalog,
                    Strategy::FeedForward,
                    &self.config,
                    &cfg,
                    &[],
                )?;
                rows.push(to_row(id, label, &m));
            }
        }
        Ok(FigureReport {
            id: "ablation-sets".into(),
            title: "AIP-set representation: Bloom filters vs exact hash sets".into(),
            rows,
            notes: vec![
                "The paper found Bloom filters superior overall and shipped only them (§V).".into(),
            ],
        })
    }

    /// Bloom sizing ablation: FPR sweep (the paper fixes 5%, 1 hash).
    pub fn ablation_fpr(&self) -> Result<FigureReport> {
        let mut rows = Vec::new();
        let id = "Q2A";
        let catalog = self.catalog_for(id)?;
        let spec = build_query(id, catalog)?;
        for fpr in [0.005, 0.05, 0.20] {
            let cfg = AipConfig {
                fpr,
                ..AipConfig::paper()
            };
            let m = measure(
                &spec,
                catalog,
                Strategy::FeedForward,
                &self.config,
                &cfg,
                &[],
            )?;
            let mut r = to_row(id, "Feed-forward", &m);
            r.extra = format!("fpr={fpr}");
            rows.push(r);
        }
        Ok(FigureReport {
            id: "ablation-fpr".into(),
            title: "Bloom FPR sweep around the paper's 5% default".into(),
            rows,
            notes: vec![],
        })
    }

    /// §III-C extension ablation: min/max range summaries as AIP sets.
    pub fn ablation_minmax(&self) -> Result<FigureReport> {
        let mut rows = Vec::new();
        let id = "Q2A";
        let catalog = self.catalog_for(id)?;
        let spec = build_query(id, catalog)?;
        for (label, kind) in [
            ("FF/bloom", AipSetKind::Bloom),
            ("FF/minmax", AipSetKind::MinMax),
        ] {
            let cfg = AipConfig {
                set_kind: kind,
                ..AipConfig::paper()
            };
            let m = measure(
                &spec,
                catalog,
                Strategy::FeedForward,
                &self.config,
                &cfg,
                &[],
            )?;
            rows.push(to_row(id, label, &m));
        }
        Ok(FigureReport {
            id: "ablation-minmax".into(),
            title: "§III-C extension: range (min/max) summaries vs Bloom filters".into(),
            rows,
            notes: vec!["Key domains are dense here, so range envelopes prune little.".into()],
        })
    }
}

fn to_row(id: &str, strategy: &str, m: &Measurement) -> ReportRow {
    ReportRow {
        query: id.to_string(),
        strategy: strategy.to_string(),
        secs: m.secs_mean,
        ci: m.secs_ci95,
        state_mb: m.state_mb,
        rows: m.rows,
        extra: if m.filters > 0.0 {
            format!("{:.0} filters, {:.0} rows dropped", m.filters, m.dropped)
        } else {
            String::new()
        },
        phase_secs: m.phase_secs,
    }
}

fn split_time_space(
    rows: Vec<ReportRow>,
    time: (&str, &str),
    space: (&str, &str),
    notes: Vec<String>,
) -> (FigureReport, FigureReport) {
    let t = FigureReport {
        id: time.0.into(),
        title: time.1.into(),
        rows: rows.clone(),
        notes: notes.clone(),
    };
    let s = FigureReport {
        id: space.0.into(),
        title: space.1.into(),
        rows,
        notes,
    };
    (t, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        Harness::new(ExperimentConfig {
            scale_factor: 0.002,
            repeats: 1,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn table1_lists_all_queries() {
        let h = tiny_harness();
        let t = h.table1();
        for id in ["Q1A", "Q2E", "Q3C", "Q4B", "Q5A", "EX"] {
            assert!(t.contains(id), "missing {id}");
        }
    }

    #[test]
    fn fig1_and_fig2_render() {
        let h = tiny_harness();
        let f1 = h.fig1().unwrap();
        assert!(f1.contains("HashJoin"));
        let f2 = h.fig2().unwrap();
        assert!(f2.contains("source-predicate graph"));
        assert!(f2.contains("AIP registry"));
    }

    #[test]
    fn report_markdown_shape() {
        let r = FigureReport {
            id: "figX".into(),
            title: "test".into(),
            rows: vec![ReportRow {
                query: "Q1A".into(),
                strategy: "Baseline".into(),
                secs: 1.5,
                ci: 0.1,
                state_mb: 2.0,
                rows: 10,
                extra: String::new(),
                ..Default::default()
            }],
            notes: vec!["note".into()],
        };
        let md = r.to_markdown();
        assert!(md.contains("| Q1A | Baseline | 1.500 |"));
        assert!(md.contains("> note"));
    }

    /// The `BENCH_<figure>.json` schema smoke check CI relies on: figure
    /// id, the full config block, one point per cell, escaped strings.
    #[test]
    fn report_json_shape() {
        let r = FigureReport {
            id: "kernels".into(),
            title: "quote \" and\nnewline".into(),
            rows: vec![ReportRow {
                query: "trace-gate".into(),
                strategy: "gated-off".into(),
                secs: 0.25,
                ci: 0.0,
                state_mb: 0.0,
                rows: 42,
                extra: "bare/this 1.00x".into(),
                ..Default::default()
            }],
            notes: vec!["n1".into()],
        };
        let cfg = ExperimentConfig::default();
        let j = r.to_json(&cfg);
        for needle in [
            "\"figure\": \"kernels\"",
            "\"title\": \"quote \\\" and\\nnewline\"",
            "\"scale_factor\": 0.05",
            "\"retries\": 0",
            "\"query\": \"trace-gate\"",
            "\"strategy\": \"gated-off\"",
            "\"secs\": 0.250000",
            "\"rows\": 42",
            "\"notes\": [\"n1\"]",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
        // Well-bracketed (cheap structural sanity without a parser).
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }
}
