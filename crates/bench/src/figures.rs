//! Per-figure experiment runners.

use crate::measure::{ci95, mean, measure, measure_dop, ExperimentConfig, Measurement};
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
    /// measured outside the traced `measure`/`measure_dop` path.
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

    /// Partition-parallel scaling (`sip-parallel`): the Fig. 1 running
    /// example *and* a multi-class join chain (TPC-H 5) over skewed data
    /// with the paper's slow-source delay model, swept over dop ∈ {1, 2,
    /// 4, ..., `--dop`}. The running example scales through partitioned
    /// scans alone; the multi-class chain additionally crosses shuffle
    /// meshes at every partitioning-class change — the configuration that
    /// previously collapsed to replicated scans or a serial region.
    pub fn scaling(&self) -> Result<FigureReport> {
        let queries: [(&str, &[(&str, DelayModel)]); 2] = [
            (
                "EX",
                &[
                    ("l", DelayModel::paper_delayed()),
                    ("ps1", DelayModel::paper_delayed()),
                    ("ps2", DelayModel::paper_delayed()),
                ],
            ),
            // Multi-class chain: custkey → orderkey → suppkey/nationkey
            // partitioning classes, with slow fact sources on both sides
            // of the first repartition boundary.
            (
                "Q4A",
                &[
                    ("l", DelayModel::paper_delayed()),
                    ("o", DelayModel::paper_delayed()),
                ],
            ),
        ];
        let mut dops = vec![1u32];
        let mut d = 2;
        while d <= self.config.dop.max(1) {
            dops.push(d);
            d *= 2;
        }
        let mut rows = Vec::new();
        let mut notes = Vec::new();
        for (id, delays) in queries {
            let catalog = if id == "EX" {
                &self.skewed
            } else {
                self.catalog_for(id)?
            };
            let spec = build_query(id, catalog)?;
            let mut base = None;
            for &dop in &dops {
                let (m, workers) = measure_dop(
                    &spec,
                    catalog,
                    Strategy::FeedForward,
                    &self.config,
                    &AipConfig::paper(),
                    delays,
                    dop,
                )?;
                let speedup = match base {
                    None => {
                        base = Some(m.secs_mean);
                        1.0
                    }
                    Some(b) => b / m.secs_mean,
                };
                let mut r = to_row(id, &format!("FF dop={dop}"), &m);
                r.extra = format!("{} filters, speedup {speedup:.2}x", m.filters.round());
                rows.push(r);
                notes.extend(workers);
            }
        }
        Ok(FigureReport {
            id: "scaling".into(),
            title: "sip-parallel: partition-parallel scaling on slow sources".into(),
            rows,
            notes,
        })
    }

    /// Batch-kernel micro-figure: the two hottest per-row paths — the
    /// injected-filter tap probe and shuffle routing — measured
    /// row-at-a-time (the pre-vectorization interior: one hash + one key
    /// clone per row per filter via `probe_quiet`, plus a second routing
    /// hash) against the batch kernels (`TapKernel`: one shared digest pass
    /// per batch per key-column set, selection-vector routing, no key
    /// materialization). Sweep `--batch-size` / `--channel-capacity` to
    /// explore the space; the acceptance bar is ≥2× at batch 1024.
    pub fn kernels(&self) -> Result<FigureReport> {
        use sip_engine::{InjectedFilter, TapKernel};
        use sip_filter::AipSetBuilder;
        use std::hint::black_box;
        use std::sync::Arc as StdArc;
        use std::time::Instant;

        let batch = self.config.batch_size.max(1);
        let n_rows: usize = 1 << 17;
        let key_space = 10_000i64;
        let dop = 4u32;
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
        let repeats = self.config.repeats.max(1);

        // --- Tap probe: row-at-a-time (probe_quiet per row per filter) ---
        let mut survivors = 0usize;
        let t = Instant::now();
        for _ in 0..repeats {
            for chunk in rows.chunks(batch) {
                for row in chunk {
                    let mut keep = true;
                    for f in &chain {
                        if f.probe_quiet(row) == Some(false) {
                            keep = false;
                            break;
                        }
                    }
                    if keep {
                        survivors += 1;
                    }
                }
            }
        }
        let tap_row_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let row_survivors = black_box(survivors) / repeats;

        // --- Tap probe: batch kernel ---
        let mut kernel = TapKernel::new();
        let mut survivors = 0usize;
        let t = Instant::now();
        for _ in 0..repeats {
            for chunk in rows.chunks(batch) {
                kernel.begin(chunk.len());
                kernel.probe_chain(&chain, chunk);
                survivors += kernel.sel().len();
            }
        }
        let tap_batch_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let batch_survivors = black_box(survivors) / repeats;
        if row_survivors != batch_survivors {
            return Err(sip_common::SipError::Exec(format!(
                "kernel divergence: row tap kept {row_survivors}, batch tap kept {batch_survivors}"
            )));
        }

        // --- Shuffle route: row-at-a-time (route hash per row, then the
        // per-destination buffers tap-probe each row as the old emitters
        // did) ---
        let mut buckets: Vec<Vec<sip_common::Row>> =
            (0..dop as usize).map(|_| Vec::new()).collect();
        let mut routed = 0usize;
        let t = Instant::now();
        for _ in 0..repeats {
            for chunk in rows.chunks(batch) {
                for b in buckets.iter_mut() {
                    b.clear();
                }
                for row in chunk {
                    let owner = sip_common::hash::partition_of(row.key_hash(&[0]), dop);
                    buckets[owner as usize].push(row.clone());
                }
                for b in &buckets {
                    for row in b {
                        let mut keep = true;
                        for f in &chain {
                            if f.probe_quiet(row) == Some(false) {
                                keep = false;
                                break;
                            }
                        }
                        if keep {
                            routed += 1;
                        }
                    }
                }
            }
        }
        let route_row_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let row_routed = black_box(routed) / repeats;

        // --- Shuffle route: batch kernel (tap + routing share one digest
        // pass; per-destination selection vectors gathered into outgoing
        // batches) ---
        let mut kernel = TapKernel::new();
        let mut route: Vec<sip_common::SelVec> = (0..dop as usize)
            .map(|_| sip_common::SelVec::default())
            .collect();
        let mut owners: Vec<u32> = Vec::new();
        let mut routed = 0usize;
        let t = Instant::now();
        for _ in 0..repeats {
            for chunk in rows.chunks(batch) {
                kernel.begin(chunk.len());
                kernel.probe_chain(&chain, chunk);
                for s in route.iter_mut() {
                    s.clear();
                }
                {
                    let d = kernel.digests(chunk, &[0]).digests();
                    owners.clear();
                    owners.extend(d.iter().map(|&d| sip_common::hash::partition_of(d, dop)));
                }
                for i in kernel.sel().iter() {
                    route[owners[i as usize] as usize].push(i);
                }
                for (b, s) in buckets.iter_mut().zip(route.iter()) {
                    b.clear();
                    b.extend(s.iter().map(|i| chunk[i as usize].clone()));
                    routed += b.len();
                }
            }
        }
        let route_batch_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let batch_routed = black_box(routed) / repeats;
        if row_routed != batch_routed {
            return Err(sip_common::SipError::Exec(format!(
                "kernel divergence: row route kept {row_routed}, batch route kept {batch_routed}"
            )));
        }

        // --- Trace gate: the tap-probe batch loop bare vs the same loop
        // wrapped in per-batch sip-trace spans with tracing *off* — the
        // cost every operator pays on every batch when `--trace` is not
        // requested (one atomic-free level check per span; `begin` returns
        // 0 without reading the clock). Interleaved min-of-repeats so
        // ambient noise hits both variants equally; CI holds gated-off to
        // within 2% of untraced.
        let hub = sip_common::trace::TraceHub::new(sip_common::trace::TraceLevel::Off);
        let gate_reps = repeats.max(5);
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
        black_box(survivors);

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
        let cell =
            |name: &str, variant: &str, secs: f64, kept: usize, speedup: Option<f64>| ReportRow {
                query: name.into(),
                strategy: variant.into(),
                secs,
                ci: 0.0,
                state_mb: 0.0,
                rows: kept as u64,
                extra: match speedup {
                    Some(s) => format!("{:.1} Mrows/s, speedup {s:.2}x", mrows(secs)),
                    None => format!("{:.1} Mrows/s", mrows(secs)),
                },
                ..Default::default()
            };
        let rows_out = vec![
            cell("tap-probe", "row", tap_row_secs, row_survivors, None),
            cell(
                "tap-probe",
                "batch",
                tap_batch_secs,
                batch_survivors,
                Some(tap_row_secs / tap_batch_secs),
            ),
            cell("shuffle-route", "row", route_row_secs, row_routed, None),
            cell(
                "shuffle-route",
                "batch",
                route_batch_secs,
                batch_routed,
                Some(route_row_secs / route_batch_secs),
            ),
            cell(
                "trace-gate",
                "untraced",
                untraced_best,
                batch_survivors,
                None,
            ),
            cell(
                "trace-gate",
                "gated-off",
                gated_best,
                batch_survivors,
                Some(untraced_best / gated_best),
            ),
            cell(
                "cancel-gate",
                "unchecked",
                unchecked_best,
                batch_survivors,
                None,
            ),
            cell(
                "cancel-gate",
                "checked",
                checked_best,
                batch_survivors,
                Some(unchecked_best / checked_best),
            ),
        ];
        Ok(FigureReport {
            id: "kernels".into(),
            title: format!(
                "batch kernels vs row-at-a-time interiors ({} rows, batch {batch}, 2-filter tap, dop {dop} routing)",
                n_rows
            ),
            rows: rows_out,
            notes: vec![
                "row = per-row digest + key clone per filter (probe_quiet) and a second routing hash; \
batch = one shared digest pass per key-column set, selection-vector routing."
                    .into(),
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
        use sip_parallel::{partition_plan_cfg, PartitionConfig};
        use std::time::Instant;

        let dop = self.config.dop.max(2);
        let catalog = self.catalog_for("Q4A")?;
        let spec = build_query("Q4A", catalog)?;
        let phys = Arc::new(spec.lower(catalog, Strategy::Baseline)?);
        let expected = sip_engine::canonical(&execute_oracle(&phys)?);
        let (expanded, map) = partition_plan_cfg(&phys, dop, &PartitionConfig::default())
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

    /// Build-side micro-figure: the AIP working-copy *build* path (§IV-A's
    /// feed-forward working sets and §IV-B's bulk state scan), row-admit vs
    /// batch-admit.
    ///
    /// * `admit-build` — what a stateful operator's admit site pays per
    ///   arriving batch. Both variants include the operator's own digest
    ///   pass (the operator hashes its keys regardless); row then admits
    ///   via the pre-PR `RowCollector::admit` semantics (one `key_hash` +
    ///   one key `Value` clone per row per working set), batch via
    ///   `admit_batch` (`AipSetBuilder::extend_batch` sharing the
    ///   operator's digests — zero additional hashes, values cloned only
    ///   for genuinely new exact keys).
    /// * `state-scan` — the cost-based manager's set construction over a
    ///   completed `StateView` (exact hash-set kind, the §V-B reuse case):
    ///   per-row hash + key `Value` clone + insert (which re-allocates the
    ///   key vector), vs per-row hash + `insert_at` (positional compare,
    ///   a key vector built only for genuinely new keys — ~8% of rows
    ///   here).
    ///
    /// The acceptance bar is ≥ 1.5× build throughput at batch 1024.
    pub fn admit(&self) -> Result<FigureReport> {
        use sip_common::{DigestBuffer, Row, Value};
        use sip_filter::AipSetBuilder;
        use std::hint::black_box;
        use std::time::Instant;

        let batch = self.config.batch_size.max(1);
        let n_rows: usize = 1 << 17;
        let key_space = 10_000i64;
        // Stateful-operator-input-shaped rows: key, payload int, payload
        // string; ~92% duplicate keys, as a fact input over a key domain.
        let rows: Vec<Row> = (0..n_rows as i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % key_space),
                    Value::Int(i),
                    Value::str("payload-string"),
                ])
            })
            .collect();
        // The feed-forward shape: every potentially useful working set at
        // once — the paper's Bloom default stacked with an exact hash set.
        let kinds = [AipSetKind::Bloom, AipSetKind::Hash];
        let positions = [0usize];
        let repeats = self.config.repeats.max(1);
        let new_builders = || -> Vec<AipSetBuilder> {
            kinds
                .iter()
                .map(|&k| AipSetBuilder::new(k, key_space as usize, 0.05, 1))
                .collect()
        };

        // --- admit-build: row-at-a-time (pre-PR RowCollector::admit) ---
        let mut row_keys = 0u64;
        let mut digests = DigestBuffer::default();
        let t = Instant::now();
        for _ in 0..repeats {
            let mut builders = new_builders();
            for chunk in rows.chunks(batch) {
                // The operator's own key pass — paid in both variants.
                digests.compute(chunk, &positions);
                for row in chunk {
                    for b in builders.iter_mut() {
                        let digest = row.key_hash(&positions);
                        let key = [row.get(0).clone()];
                        b.insert(digest, &key);
                    }
                }
            }
            row_keys = builders
                .into_iter()
                .map(|b| b.finish().n_keys())
                .sum::<u64>();
        }
        let admit_row_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let row_keys = black_box(row_keys);

        // --- admit-build: batch (admit_batch over the shared digests) ---
        let mut batch_keys = 0u64;
        let t = Instant::now();
        for _ in 0..repeats {
            let mut builders = new_builders();
            for chunk in rows.chunks(batch) {
                digests.compute(chunk, &positions);
                for b in builders.iter_mut() {
                    b.extend_batch(chunk, &positions, &digests);
                }
            }
            batch_keys = builders
                .into_iter()
                .map(|b| b.finish().n_keys())
                .sum::<u64>();
        }
        let admit_batch_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let batch_keys = black_box(batch_keys);
        if row_keys != batch_keys {
            return Err(sip_common::SipError::Exec(format!(
                "admit divergence: row build holds {row_keys} keys, batch build {batch_keys}"
            )));
        }

        // --- state-scan: row-at-a-time (pre-PR cost-based for_each:
        // hash + key clone + insert, which re-allocates the key) ---
        let scan_kind = AipSetKind::Hash; // the §V-B hash-table reuse case
        let mut scan_row_keys = 0u64;
        let t = Instant::now();
        for _ in 0..repeats {
            let mut b = AipSetBuilder::new(scan_kind, key_space as usize, 0.05, 1);
            for row in &rows {
                let digest = row.key_hash(&positions);
                let key = [row.get(0).clone()];
                b.insert(digest, &key);
            }
            scan_row_keys = b.finish().n_keys();
        }
        let scan_row_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let scan_row_keys = black_box(scan_row_keys);

        // --- state-scan: positional (insert_at — no key materialization) ---
        let mut scan_batch_keys = 0u64;
        let t = Instant::now();
        for _ in 0..repeats {
            let mut b = AipSetBuilder::new(scan_kind, key_space as usize, 0.05, 1);
            for row in &rows {
                b.insert_at(row.key_hash(&positions), row.values(), &positions);
            }
            scan_batch_keys = b.finish().n_keys();
        }
        let scan_batch_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let scan_batch_keys = black_box(scan_batch_keys);
        if scan_row_keys != scan_batch_keys {
            return Err(sip_common::SipError::Exec(format!(
                "state-scan divergence: row {scan_row_keys} keys, bulk {scan_batch_keys}"
            )));
        }

        let mrows = |secs: f64| n_rows as f64 / secs / 1e6;
        let cell =
            |name: &str, variant: &str, secs: f64, keys: u64, speedup: Option<f64>| ReportRow {
                query: name.into(),
                strategy: variant.into(),
                secs,
                ci: 0.0,
                state_mb: 0.0,
                rows: keys,
                extra: match speedup {
                    Some(s) => format!("{:.1} Mrows/s, speedup {s:.2}x", mrows(secs)),
                    None => format!("{:.1} Mrows/s", mrows(secs)),
                },
                ..Default::default()
            };
        Ok(FigureReport {
            id: "admit".into(),
            title: format!(
                "AIP build path: row admit vs batch admit ({n_rows} rows, batch {batch}, \
Bloom+Hash working sets)"
            ),
            rows: vec![
                cell("admit-build", "row", admit_row_secs, row_keys, None),
                cell(
                    "admit-build",
                    "batch",
                    admit_batch_secs,
                    batch_keys,
                    Some(admit_row_secs / admit_batch_secs),
                ),
                cell("state-scan", "row", scan_row_secs, scan_row_keys, None),
                cell(
                    "state-scan",
                    "batch",
                    scan_batch_secs,
                    scan_batch_keys,
                    Some(scan_row_secs / scan_batch_secs),
                ),
            ],
            notes: vec![
                "row = one key hash + one key Value clone per row per working set \
(RowCollector::admit / StateView::for_each insert); batch = the operator's shared digest \
pass + bulk inserts (admit_batch / extend_batch), cloning a value only for new exact keys. \
Both admit-build variants pay the operator's own digest pass."
                    .into(),
            ],
        })
    }

    /// Columnar micro-figure: the typed-column kernels against the same
    /// kernels over row-shaped batches — both *batched* (post-vectorization
    /// interiors), so the measured delta is purely the memory layout.
    ///
    /// * `digest` — one key-digest pass ([`DigestBuffer::compute`] over
    ///   `&[Row]` vs [`DigestBuffer::compute_cols`] over typed column
    ///   slices with NULL flagging fused).
    /// * `tap-probe` — a two-filter injected-tap stack
    ///   (`TapKernel::probe_chain` vs `probe_chain_cols`).
    /// * `shuffle-route` — digest + selection-vector dealing + building the
    ///   per-destination outgoing batches (row clones vs per-column
    ///   gathers).
    /// * `stream-gen` — satellite: [`sip_data::stream_lineitem`] generating
    ///   LINEITEM in constant-memory columnar chunks, at the configured
    ///   `--sf` and at 4× it, showing flat chunk footprint and throughput.
    ///
    /// Every pair self-checks (digest checksums, survivor and routed
    /// counts) so a layout divergence fails the figure rather than skewing
    /// it. The acceptance bar is ≥ 1.5× on `digest`/`tap-probe` or
    /// `shuffle-route` at batch 1024.
    pub fn columnar(&self) -> Result<FigureReport> {
        use sip_common::{ColumnarBatch, DigestBuffer, Row, SelVec, Value};
        use sip_engine::{InjectedFilter, TapKernel};
        use sip_filter::AipSetBuilder;
        use std::hint::black_box;
        use std::sync::Arc as StdArc;
        use std::time::Instant;

        let batch = self.config.batch_size.max(1);
        let n_rows: usize = 1 << 17;
        let key_space = 10_000i64;
        let dop = 4u32;
        // Join-output-shaped rows: key, payload int, payload string.
        let rows: Vec<Row> = (0..n_rows as i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % key_space),
                    Value::Int(i),
                    Value::str("payload-string"),
                ])
            })
            .collect();
        let cols = ColumnarBatch::from_rows(&rows);
        let pass_bytes = cols.size_bytes() as f64;
        let repeats = self.config.repeats.max(1);
        // Walk the columnar batch in the same chunk grid `rows.chunks`
        // produces, as metadata-only slices.
        let col_chunks = |f: &mut dyn FnMut(&ColumnarBatch)| {
            let mut off = 0usize;
            while off < n_rows {
                let n = batch.min(n_rows - off);
                f(&cols.slice(off, n));
                off += n;
            }
        };

        // --- digest: row layout ---
        let mut digests = DigestBuffer::default();
        let mut row_sum = 0u64;
        let t = Instant::now();
        for _ in 0..repeats {
            for chunk in rows.chunks(batch) {
                digests.compute(chunk, &[0]);
                for &d in digests.digests() {
                    row_sum = row_sum.wrapping_add(d);
                }
            }
        }
        let digest_row_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let row_sum = black_box(row_sum);

        // --- digest: columnar layout ---
        let mut col_sum = 0u64;
        let t = Instant::now();
        for _ in 0..repeats {
            col_chunks(&mut |chunk| {
                digests.compute_cols(chunk, &[0]);
                for &d in digests.digests() {
                    col_sum = col_sum.wrapping_add(d);
                }
            });
        }
        let digest_col_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let col_sum = black_box(col_sum);
        if row_sum != col_sum {
            return Err(sip_common::SipError::Exec(format!(
                "columnar divergence: row digest checksum {row_sum:#x}, columnar {col_sum:#x}"
            )));
        }

        // A realistic tap stack over the key column: a Bloom filter keeping
        // roughly half the key domain, stacked with an exact hash set.
        let build = |kind: AipSetKind, keys: std::ops::Range<i64>| {
            let mut b = AipSetBuilder::new(kind, (keys.end - keys.start) as usize, 0.05, 1);
            for k in keys {
                let key = vec![Value::Int(k)];
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

        // --- tap-probe: row layout ---
        let mut kernel = TapKernel::new();
        let mut row_survivors = 0usize;
        let t = Instant::now();
        for _ in 0..repeats {
            for chunk in rows.chunks(batch) {
                kernel.begin(chunk.len());
                kernel.probe_chain(&chain, chunk);
                row_survivors += kernel.sel().len();
            }
        }
        let tap_row_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let row_survivors = black_box(row_survivors) / repeats;

        // --- tap-probe: columnar layout ---
        let mut col_survivors = 0usize;
        let t = Instant::now();
        for _ in 0..repeats {
            col_chunks(&mut |chunk| {
                kernel.begin(chunk.len());
                kernel.probe_chain_cols(&chain, chunk);
                col_survivors += kernel.sel().len();
            });
        }
        let tap_col_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let col_survivors = black_box(col_survivors) / repeats;
        if row_survivors != col_survivors {
            return Err(sip_common::SipError::Exec(format!(
                "columnar divergence: row tap kept {row_survivors}, columnar {col_survivors}"
            )));
        }

        // --- shuffle-route: row layout (digest + selection-vector dealing,
        // per-destination batches built from row clones — the ShuffleWrite
        // row arm's extend_sel) ---
        let mut route: Vec<SelVec> = (0..dop as usize).map(|_| SelVec::default()).collect();
        let mut owners: Vec<u32> = Vec::new();
        let mut buckets: Vec<Vec<Row>> = (0..dop as usize).map(|_| Vec::new()).collect();
        let mut row_routed = 0usize;
        let t = Instant::now();
        for _ in 0..repeats {
            for chunk in rows.chunks(batch) {
                kernel.begin(chunk.len());
                kernel.probe_chain(&chain, chunk);
                for s in route.iter_mut() {
                    s.clear();
                }
                {
                    let d = kernel.digests(chunk, &[0]).digests();
                    owners.clear();
                    owners.extend(d.iter().map(|&d| sip_common::hash::partition_of(d, dop)));
                }
                for i in kernel.sel().iter() {
                    route[owners[i as usize] as usize].push(i);
                }
                for (b, s) in buckets.iter_mut().zip(route.iter()) {
                    b.clear();
                    b.extend(s.iter().map(|i| chunk[i as usize].clone()));
                    row_routed += b.len();
                }
            }
        }
        let route_row_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let row_routed = black_box(row_routed) / repeats;

        // --- shuffle-route: columnar layout (shared digest pass, per-
        // destination column gathers — the ShuffleWrite columnar arm) ---
        let mut col_routed = 0usize;
        let t = Instant::now();
        for _ in 0..repeats {
            col_chunks(&mut |chunk| {
                kernel.begin(chunk.len());
                kernel.probe_chain_cols(&chain, chunk);
                for s in route.iter_mut() {
                    s.clear();
                }
                {
                    let d = kernel.digests_cols(chunk, &[0]).digests();
                    owners.clear();
                    owners.extend(d.iter().map(|&d| sip_common::hash::partition_of(d, dop)));
                }
                for i in kernel.sel().iter() {
                    route[owners[i as usize] as usize].push(i);
                }
                for s in route.iter() {
                    if !s.is_empty() {
                        col_routed += black_box(chunk.gather(s.as_slice())).len();
                    }
                }
            });
        }
        let route_col_secs = t.elapsed().as_secs_f64() / repeats as f64;
        let col_routed = black_box(col_routed) / repeats;
        if row_routed != col_routed {
            return Err(sip_common::SipError::Exec(format!(
                "columnar divergence: row route dealt {row_routed}, columnar {col_routed}"
            )));
        }

        let mrows = |secs: f64| n_rows as f64 / secs / 1e6;
        let gbs = |secs: f64| pass_bytes / secs / 1e9;
        let cell =
            |name: &str, variant: &str, secs: f64, kept: usize, speedup: Option<f64>| ReportRow {
                query: name.into(),
                strategy: variant.into(),
                secs,
                ci: 0.0,
                state_mb: 0.0,
                rows: kept as u64,
                extra: match speedup {
                    Some(s) => format!(
                        "{:.1} Mrows/s ({:.2} GB/s), speedup {s:.2}x",
                        mrows(secs),
                        gbs(secs)
                    ),
                    None => format!("{:.1} Mrows/s ({:.2} GB/s)", mrows(secs), gbs(secs)),
                },
                ..Default::default()
            };
        let mut rows_out = vec![
            cell("digest", "row", digest_row_secs, n_rows, None),
            cell(
                "digest",
                "columnar",
                digest_col_secs,
                n_rows,
                Some(digest_row_secs / digest_col_secs),
            ),
            cell("tap-probe", "row", tap_row_secs, row_survivors, None),
            cell(
                "tap-probe",
                "columnar",
                tap_col_secs,
                col_survivors,
                Some(tap_row_secs / tap_col_secs),
            ),
            cell("shuffle-route", "row", route_row_secs, row_routed, None),
            cell(
                "shuffle-route",
                "columnar",
                route_col_secs,
                col_routed,
                Some(route_row_secs / route_col_secs),
            ),
        ];

        // --- stream-gen: constant-memory chunked LINEITEM generation ---
        const STREAM_CHUNK: usize = 8192;
        for mult in [1.0f64, 4.0] {
            let sf = self.config.scale_factor * mult;
            let cfg = sip_data::TpchConfig {
                scale_factor: sf,
                seed: self.config.seed,
                zipf_z: 0.0,
            };
            let mut streamed = 0u64;
            let mut peak_chunk_bytes = 0usize;
            let t = Instant::now();
            sip_data::stream_lineitem(&cfg, STREAM_CHUNK, &mut |b| {
                streamed += b.len() as u64;
                peak_chunk_bytes = peak_chunk_bytes.max(b.size_bytes());
                Ok(())
            })?;
            let secs = t.elapsed().as_secs_f64();
            rows_out.push(ReportRow {
                query: "stream-gen".into(),
                strategy: format!("sf={sf}"),
                secs,
                ci: 0.0,
                state_mb: peak_chunk_bytes as f64 / 1e6,
                rows: streamed,
                extra: format!(
                    "{:.2} Mrows/s, peak chunk {:.0} KB",
                    streamed as f64 / secs / 1e6,
                    peak_chunk_bytes as f64 / 1e3
                ),
                ..Default::default()
            });
        }

        Ok(FigureReport {
            id: "columnar".into(),
            title: format!(
                "columnar vs row batch layout ({n_rows} rows, batch {batch}, 2-filter tap, \
dop {dop} routing) + constant-memory streamed generation"
            ),
            rows: rows_out,
            notes: vec![
                "Both variants are batched; the delta is layout alone. row = Value-enum rows \
(digest/probe dispatch per value, routed batches built from row clones); columnar = typed \
column slices (fused NULL flagging, dict-aware string digests, routed batches gathered per \
column). state_mb on stream-gen cells = peak resident chunk, flat across scale factors."
                    .into(),
                "Divergence self-checks: digest checksums, tap survivor counts, and routed row \
counts must match between layouts or the figure errors."
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
            id: "admit".into(),
            title: "quote \" and\nnewline".into(),
            rows: vec![ReportRow {
                query: "admit-build".into(),
                strategy: "batch".into(),
                secs: 0.25,
                ci: 0.0,
                state_mb: 0.0,
                rows: 42,
                extra: "speedup 2.00x".into(),
                ..Default::default()
            }],
            notes: vec!["n1".into()],
        };
        let cfg = ExperimentConfig::default();
        let j = r.to_json(&cfg);
        for needle in [
            "\"figure\": \"admit\"",
            "\"title\": \"quote \\\" and\\nnewline\"",
            "\"scale_factor\": 0.05",
            "\"retries\": 0",
            "\"query\": \"admit-build\"",
            "\"strategy\": \"batch\"",
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
