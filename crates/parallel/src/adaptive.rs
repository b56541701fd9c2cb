//! Stage-boundary adaptive execution.
//!
//! A frozen parallel plan commits to its salting, dop, and AIP decisions
//! before the first row flows, using base-table statistics. Mid-plan
//! streams — a join output whose key frequencies no base table predicts, a
//! filter whose selectivity the estimator guesses at — are exactly where
//! those statistics go blind, and the decisions they drive (reject an AIP
//! filter, skip salting, over-provision partitions) cannot be revisited
//! once the operator threads are running.
//!
//! [`AdaptiveExec`] splits the plan at a stage boundary instead: the lowest
//! stateful operator that has another stateful operator above it. Stage 1
//! (the subtree under the split) runs partition-parallel and its output is
//! **materialized as a table** — which makes every runtime observation
//! exact and free: [`Table::new`] computes per-column distinct counts,
//! min/max, and heavy-hitter digests over the actual intermediate rows.
//! Stage 2 is then *re-planned* against those measured statistics:
//!
//! 1. **Salting** — `partition_plan`'s salt planner reads the stage
//!    table's exact hot-key digests, so a mid-plan stream whose measured
//!    frequencies diverge from base-table stats is salted (or un-salted)
//!    from evidence, not guesswork.
//! 2. **Downstream join plans** — the cost-based AIP controller's
//!    estimator sees the stage table's true cardinality and distinct
//!    counts, so `ESTIMATEBENEFIT` prices downstream filters against
//!    observed reality (`UPDATEESTIMATES` with exact figures); decisions
//!    that a misestimated selectivity froze wrong flip to the beneficial
//!    choice.
//! 3. **Effective dop** — the downstream degree of parallelism is re-chosen
//!    from the *measured* row count (clamped so each partition gets a
//!    worthwhile share), so a stream that collapsed to a handful of rows
//!    stops paying per-partition thread and channel overhead.
//!
//! Adaptation changes only physical routing — partitioning, salting,
//! filter injection — never the result multiset; the differential suite
//! pins every (dop × adaptive on/off) combination to the serial oracle.

use crate::exec::PartitionedExec;
use crate::shuffle::PartitionConfig;
use sip_common::{plan_err, FxHashMap, OpId, Result, Schema};
use sip_data::Table;
use sip_engine::{
    ExecMonitor, ExecOptions, PartitionMap, PhysKind, PhysNode, PhysPlan, QueryOutput,
};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for the adaptive split.
#[derive(Clone, Debug)]
pub struct AdaptiveConfig {
    /// Minimum stage-1 output rows each stage-2 partition must receive for
    /// parallelism to pay for its thread/channel overhead; the effective
    /// dop is clamped to `rows / min_rows_per_partition`.
    pub min_rows_per_partition: u64,
    /// Plan-expansion knobs shared by both stages.
    pub partition: PartitionConfig,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_rows_per_partition: 256,
            partition: PartitionConfig::default(),
        }
    }
}

/// What the adaptive executor decided and observed, for reporting.
#[derive(Clone, Debug, Default)]
pub struct AdaptiveReport {
    /// Did the plan split (false = no stage boundary found; ran frozen)?
    pub adapted: bool,
    /// Rows the materialized stage-1 output held.
    pub stage1_rows: u64,
    /// Stage-1 wall clock.
    pub stage1_wall: Duration,
    /// The dop the caller asked for.
    pub requested_dop: u32,
    /// The dop stage 2 actually ran at.
    pub stage2_dop: u32,
    /// Share of stage-1 rows held by the heaviest single key of any
    /// column (exact, from the materialized table's statistics).
    pub hot_share: f64,
    /// Attempts stage 1 took under the retry policy (1 = first try).
    pub stage1_attempts: u32,
    /// Attempts stage 2 took. A stage-2 retry restarts from the
    /// materialized `__stage1` checkpoint — stage 1 is never re-run.
    pub stage2_attempts: u32,
    /// Human-readable decision trace, one line per decision.
    pub decisions: Vec<String>,
}

/// Two-stage adaptive executor: run the lower stage, measure, re-plan the
/// upper stage. Falls back to a plain [`PartitionedExec`] run (the frozen
/// plan) when the plan offers no stage boundary.
#[derive(Clone, Debug)]
pub struct AdaptiveExec {
    dop: u32,
    config: AdaptiveConfig,
}

impl AdaptiveExec {
    /// An adaptive executor targeting `dop` partitions.
    pub fn new(dop: u32) -> Self {
        Self::with_config(dop, AdaptiveConfig::default())
    }

    /// An adaptive executor with explicit knobs.
    pub fn with_config(dop: u32, config: AdaptiveConfig) -> Self {
        AdaptiveExec {
            dop: dop.max(1),
            config,
        }
    }

    /// The stage boundary: the lowest (deepest, then earliest) stateful
    /// operator that has a stateful ancestor. Everything under it is worth
    /// measuring *because* decisions above it remain open. `None` when the
    /// plan has fewer than two stacked stateful operators, or already
    /// contains parallel-expansion nodes (it is not a serial plan).
    pub fn split_point(plan: &PhysPlan) -> Option<OpId> {
        let expanded = plan.nodes.iter().any(|n| {
            matches!(
                n.kind,
                PhysKind::Exchange { .. }
                    | PhysKind::Merge
                    | PhysKind::ShuffleWrite { .. }
                    | PhysKind::ShuffleRead { .. }
            )
        });
        if expanded {
            return None;
        }
        plan.stateful_nodes()
            .into_iter()
            .filter(|&op| {
                plan.ancestors(op)
                    .iter()
                    .any(|&a| plan.node(a).kind.is_stateful())
            })
            .max_by_key(|&op| (plan.depth(op), std::cmp::Reverse(op.index())))
    }

    /// Execute `plan`, adapting at the stage boundary when one exists.
    /// Returns the (stage-2) output plus the decision report. Metrics in
    /// the output cover stage 2 only; the report carries stage 1's wall
    /// clock and cardinality.
    pub fn execute(
        &self,
        plan: Arc<PhysPlan>,
        monitor: Arc<dyn ExecMonitor>,
        options: ExecOptions,
    ) -> Result<(QueryOutput, Option<Arc<PartitionMap>>, AdaptiveReport)> {
        let mut report = AdaptiveReport {
            requested_dop: self.dop,
            stage2_dop: self.dop,
            ..AdaptiveReport::default()
        };
        let Some(split) = Self::split_point(&plan) else {
            report
                .decisions
                .push("no stage boundary: running the frozen plan".to_string());
            let exec = PartitionedExec::with_config(self.dop, self.config.partition.clone());
            let (out, map) = exec.execute(plan, monitor, options)?;
            return Ok((out, map, report));
        };
        report.adapted = true;
        let sub = subtree(&plan, split);
        report.decisions.push(format!(
            "split at {split} ({}): stage 1 = {} ops, stage 2 = {} ops",
            plan.node(split).kind.name(),
            sub.len(),
            plan.nodes.len() - sub.len() + 1
        ));

        // Stage 1: run the subtree partition-parallel, collecting rows.
        // The caller's options are reserved for stage 2, so stage 1 runs
        // on a clone with forced row collection.
        let stage1_plan = Arc::new(extract_stage1(&plan, &sub, split)?);
        let mut stage1_opts = options.clone();
        stage1_opts.collect_rows = true;
        let exec1 = PartitionedExec::with_config(self.dop, self.config.partition.clone());
        let t0 = std::time::Instant::now();
        let (out1, _map1) = exec1.execute(stage1_plan, Arc::clone(&monitor), stage1_opts)?;
        report.stage1_wall = t0.elapsed();
        report.stage1_rows = out1.rows.len() as u64;
        report.stage1_attempts = out1.metrics.attempts;
        let stage1_recovered = out1.metrics.recovered;
        if stage1_recovered {
            report.decisions.push(format!(
                "stage 1 recovered (attempt {}); output checkpointed as __stage1",
                out1.metrics.attempts
            ));
        }

        // Materialize: `Table::new` computes exact per-column statistics
        // over the intermediate rows — the free, exact histogram every
        // stage-2 decision below reads.
        let table = materialize(&plan, split, out1.rows)?;
        report.hot_share = hot_share(&table);
        let per_row_nanos = report.stage1_wall.as_nanos() as u64 / report.stage1_rows.max(1);
        report.decisions.push(format!(
            "stage 1: {} rows in {:.1}ms ({per_row_nanos}ns/row); \
materialized as __stage1 with exact stats (hot share {:.2})",
            report.stage1_rows,
            report.stage1_wall.as_secs_f64() * 1e3,
            report.hot_share,
        ));

        // Effective dop from the measured cardinality: estimated rows per
        // partition must clear the configured floor, so a collapsed stream
        // stops paying per-partition overhead that the measured per-row
        // latency shows it cannot amortize.
        let dop2 = self.choose_dop(report.stage1_rows);
        report.stage2_dop = dop2;
        report.decisions.push(format!(
            "stage 2 dop: {dop2} (requested {}, floor {} rows/partition)",
            self.dop, self.config.min_rows_per_partition
        ));

        // Stage 2: re-plan the remainder against the measured table. The
        // salt planner and the AIP cost model both read the stage table's
        // exact statistics through the ordinary planning paths.
        let stage2_plan = Arc::new(replace_subtree(&plan, &sub, split, table)?);
        let exec2 = PartitionedExec::with_config(dop2, self.config.partition.clone());
        let (mut out2, map2) = exec2.execute(stage2_plan, monitor, options)?;
        report.stage2_attempts = out2.metrics.attempts;
        if out2.metrics.recovered {
            report.decisions.push(format!(
                "stage 2 recovered (attempt {}) from the __stage1 checkpoint; stage 1 not re-run",
                out2.metrics.attempts
            ));
        }
        // The query recovered if either stage did; attempts reports the
        // deeper of the two stages' retry depths.
        out2.metrics.recovered |= stage1_recovered;
        out2.metrics.attempts = out2.metrics.attempts.max(report.stage1_attempts);
        Ok((out2, map2, report))
    }

    fn choose_dop(&self, rows: u64) -> u32 {
        let cap = (rows / self.config.min_rows_per_partition.max(1)).max(1);
        (u64::from(self.dop)).min(cap) as u32
    }
}

/// Nodes of the subtree rooted at `root`, in arena (post) order.
fn subtree(plan: &PhysPlan, root: OpId) -> Vec<OpId> {
    let mut stack = vec![root];
    let mut out = Vec::new();
    while let Some(op) = stack.pop() {
        out.push(op);
        stack.extend(plan.node(op).inputs.iter().copied());
    }
    out.sort_unstable_by_key(|o| o.index());
    out
}

/// The subtree under `split` as a standalone plan (ids re-indexed, same
/// attribute catalog so layouts keep their meaning).
fn extract_stage1(plan: &PhysPlan, sub: &[OpId], split: OpId) -> Result<PhysPlan> {
    let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
    let mut nodes = Vec::with_capacity(sub.len());
    for (new_idx, &op) in sub.iter().enumerate() {
        let n = plan.node(op);
        remap.insert(op.0, new_idx as u32);
        nodes.push(PhysNode {
            id: OpId(new_idx as u32),
            kind: n.kind.clone(),
            inputs: n.inputs.iter().map(|c| OpId(remap[&c.0])).collect(),
            layout: n.layout.clone(),
        });
    }
    let root = OpId(remap[&split.0]);
    PhysPlan::from_nodes(nodes, root, plan.attrs.clone())
}

/// The stage-1 output rows as a table named `__stage1`, with one column
/// per attribute of the split node's layout (so the replacement scan
/// reproduces the layout exactly).
fn materialize(plan: &PhysPlan, split: OpId, rows: Vec<sip_common::Row>) -> Result<Arc<Table>> {
    let layout = &plan.node(split).layout;
    let mut fields = Vec::with_capacity(layout.len());
    for &attr in layout {
        fields.push(sip_common::Field::new(
            plan.attrs.name(attr),
            plan.attrs.dtype(attr)?,
        ));
    }
    Ok(Arc::new(Table::new(
        "__stage1",
        Schema::new(fields),
        vec![],
        vec![],
        rows,
    )?))
}

/// Share of rows held by the heaviest single key of any column — the
/// statistic plan-time salting could not see for a mid-plan stream.
fn hot_share(table: &Table) -> f64 {
    let rows = table.meta().row_count.max(1) as f64;
    table
        .meta()
        .column_stats
        .iter()
        .map(|s| s.max_freq as f64 / rows)
        .fold(0.0, f64::max)
}

/// The original plan with the measured subtree replaced by a scan of the
/// stage table. The scan keeps the subtree root's exact layout, so every
/// bound expression and key position above the boundary stays valid.
fn replace_subtree(
    plan: &PhysPlan,
    sub: &[OpId],
    split: OpId,
    table: Arc<Table>,
) -> Result<PhysPlan> {
    let in_sub: FxHashMap<u32, ()> = sub.iter().map(|o| (o.0, ())).collect();
    let layout = plan.node(split).layout.clone();
    let mut nodes = Vec::with_capacity(plan.nodes.len() - sub.len() + 1);
    nodes.push(PhysNode {
        id: OpId(0),
        kind: PhysKind::Scan {
            table,
            cols: (0..layout.len()).collect(),
            binding: "__stage1".to_string(),
            part: None,
        },
        inputs: vec![],
        layout,
    });
    let mut remap: FxHashMap<u32, u32> = FxHashMap::default();
    remap.insert(split.0, 0);
    for n in &plan.nodes {
        if in_sub.contains_key(&n.id.0) {
            continue;
        }
        let new_id = nodes.len() as u32;
        remap.insert(n.id.0, new_id);
        nodes.push(PhysNode {
            id: OpId(new_id),
            kind: n.kind.clone(),
            inputs: n
                .inputs
                .iter()
                .map(|c| {
                    remap
                        .get(&c.0)
                        .copied()
                        .map(OpId)
                        .ok_or_else(|| plan_err!("stage-2 child {c} resolved before its parent"))
                })
                .collect::<Result<Vec<_>>>()?,
            layout: n.layout.clone(),
        });
    }
    let root = OpId(remap[&plan.root.0]);
    PhysPlan::from_nodes(nodes, root, plan.attrs.clone())
}
