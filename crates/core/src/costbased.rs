//! Cost-Based AIP (§IV-B): the AIP Manager and `ESTIMATEBENEFIT` (Fig. 4).
//!
//! Execution proceeds normally until an input subexpression of a stateful
//! operator completes. The manager then re-derives cardinality estimates
//! from live counters (`UPDATEESTIMATES`), prices the construction of an
//! AIP set over the completed state, walks the interested operators
//! deepest-first summing `COST(n ⋈ n′) − COST((n < A) ⋈ n′)` while marking
//! ancestors to avoid double counting, and only on positive net benefit
//! scans the state, builds the set, and hands it to the publish path it
//! shares with feed-forward (`publish.rs`).

use crate::candidates::{AipSource, AipUser, Candidates};
use crate::config::AipConfig;
use crate::publish::Publisher;
use crate::registry::AipRegistry;
use parking_lot::Mutex;
use sip_common::{FxHashSet, OpId};
use sip_engine::{CompletionEvent, ExecContext, ExecMonitor, PhysKind, StateView};
use sip_filter::{AipSetBuilder, AipSetKind, BloomFilter};
use sip_optimizer::{CostModel, Estimator, RuntimeActual};
use sip_plan::EqClasses;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Decision counters for reporting and the overhead experiments.
#[derive(Debug, Default)]
pub struct CbStats {
    /// Candidate sets evaluated.
    pub considered: AtomicU64,
    /// Sets judged beneficial and built.
    pub built: AtomicU64,
    /// Sets rejected by the cost model.
    pub rejected: AtomicU64,
}

/// The cost-based AIP manager. Install as the engine monitor.
pub struct CostBased {
    config: AipConfig,
    cost: CostModel,
    publish: Publisher,
    /// Decision log for explainability (one line per considered set).
    decisions: Mutex<Vec<String>>,
    /// Counters.
    pub stats: CbStats,
}

impl CostBased {
    /// Build a manager for a query with equality classes `eq`.
    pub fn new(eq: EqClasses, config: AipConfig, cost: CostModel) -> Arc<Self> {
        Arc::new(CostBased {
            config,
            cost,
            publish: Publisher::new("cb", eq),
            decisions: Mutex::new(Vec::new()),
            stats: CbStats::default(),
        })
    }

    /// The registry (inspection / Fig. 2 reproduction).
    pub fn registry(&self) -> Arc<AipRegistry> {
        Arc::clone(&self.publish.registry)
    }

    /// The decision log.
    pub fn decisions(&self) -> Vec<String> {
        self.decisions.lock().clone()
    }

    /// `UPDATEESTIMATES`' input: every operator's live row count and
    /// finished bit.
    fn gather_actuals(&self, ctx: &ExecContext) -> Vec<RuntimeActual> {
        ctx.hub
            .ops
            .iter()
            .map(|m| RuntimeActual {
                rows_out: m.rows_out.load(Ordering::Relaxed),
                finished: m.finished.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// `ESTIMATEBENEFIT` (Fig. 4) for one candidate source. Returns the
    /// accepted injection sites (empty = not beneficial). `view_pos` is the
    /// position of the source attribute in `view.layout()` — which differs
    /// from `source.pos` (a *child-layout* position) for operators whose
    /// buffered state is not the raw input (aggregate group keys, semijoin
    /// build keys).
    fn estimate_benefit<'a>(
        &self,
        ctx: &ExecContext,
        cands: &'a Candidates,
        source: &AipSource,
        view: &dyn StateView,
        view_pos: usize,
        est: &Estimator,
    ) -> (f64, f64, Vec<&'a AipUser>) {
        let plan = &ctx.plan;
        let state_rows = view.len() as f64;
        // createCost (line 2), plus shipping the set to remote injection
        // sites (the distributed extension; zero locally).
        let ship_bytes = estimate_set_bytes(&self.config, view.len());
        let create_cost =
            self.cost.aip_create_cost(state_rows) + self.config.ship_cost_per_byte * ship_bytes;
        let child = plan.node(source.op).inputs[source.input];
        // Distinct keys in the AIP set: exact when the operator's hash
        // structure already counts them (§IV-B's "operators that maintain
        // information about the cardinality of the results computed so
        // far"), otherwise the estimator's scaled figure.
        let d_keys = view
            .distinct_hint(view_pos)
            .map(|d| d as f64)
            .unwrap_or_else(|| est.node(child).distinct(source.attr).min(state_rows))
            .max(1.0);

        let mut savings = 0.0;
        let mut used: FxHashSet<u32> = FxHashSet::default();
        // The source and its ancestors: where a user's ancestors meet them
        // is the common ancestor that stops double counting (lines 12-15).
        let source_line: FxHashSet<u32> = plan
            .ancestors(source.op)
            .into_iter()
            .chain([source.op])
            .map(|o| o.0)
            .collect();
        let mut accepted = Vec::new();
        // Mutable cardinalities for propagation (line 10).
        let mut rows: Vec<f64> = plan.nodes.iter().map(|n| est.node(n.id).rows).collect();

        let eq = &self.publish.eq;
        for user in self.publish.live_users(ctx, cands, source) {
            let n = user.consumer;
            let site_rows = rows[user.site.index()];
            let d_site = est.node(user.site).distinct(user.attr).max(1.0);
            let sel = (d_keys / d_site).min(1.0);
            // Bloom false positives leak through (§III-B's θ-probe).
            let sel_eff = if self.config.set_kind == AipSetKind::Bloom {
                sel + self.config.fpr * (1.0 - sel)
            } else {
                sel
            };
            let use_benefit = match &plan.node(n).kind {
                PhysKind::HashJoin {
                    left_keys,
                    right_keys,
                    ..
                } => {
                    // Which input of n does the site feed?
                    let inputs = &plan.node(n).inputs;
                    let fed = usize::from(!cands.in_subtree(inputs[0], user.site));
                    let other = 1 - fed;
                    let fed_rows = rows[inputs[fed].index()];
                    let other_rows = rows[inputs[other].index()];
                    let out_rows = rows[n.index()];
                    // Does the filter cut join output too? Only when the
                    // filtered attribute is (equated to) n's join key.
                    let fed_keys = [left_keys, right_keys][fed];
                    let fed_layout = &plan.node(inputs[fed]).layout;
                    let key_filter = fed_keys
                        .iter()
                        .any(|&k| eq.class(fed_layout[k]) == eq.class(user.attr));
                    let out_scale = if key_filter { sel_eff } else { 1.0 };
                    let before = self.cost.join_cost(fed_rows, other_rows, out_rows);
                    let after =
                        self.cost
                            .join_cost(fed_rows * sel_eff, other_rows, out_rows * out_scale)
                            + self.cost.aip_filter_cost(site_rows);
                    before - after
                }
                PhysKind::Aggregate { .. } | PhysKind::Distinct | PhysKind::SemiJoin { .. } => {
                    let in_rows = rows[plan.node(n).inputs[0].index()];
                    let before = self.cost.agg_cost(in_rows);
                    let after = self.cost.agg_cost(in_rows * sel_eff)
                        + self.cost.aip_filter_cost(site_rows);
                    before - after
                }
                _ => 0.0,
            };
            if use_benefit > 0.0 && !used.contains(&n.0) {
                savings += use_benefit;
                // Line 10: propagate revised cardinalities upward.
                rows[user.site.index()] *= sel_eff;
                for a in plan.ancestors(user.site) {
                    rows[a.index()] *= sel_eff;
                }
                accepted.push(user);
            }
            if use_benefit > 0.0 {
                // Lines 12-15: mark n and its ancestors up to the common
                // ancestor with the source so they are not double counted.
                let below_common = |a: &OpId| !source_line.contains(&a.0);
                used.extend(
                    plan.ancestors(n)
                        .into_iter()
                        .take_while(below_common)
                        .map(|a| a.0),
                );
                used.insert(n.0);
            }
        }
        (savings, create_cost, accepted)
    }

    /// §V-B: "in some cases a hash table from an operator (e.g., a join)
    /// may be directly reused as an AIP set, if it has an appropriate key"
    /// — when the completed join side is keyed by exactly the candidate
    /// attribute, an exact hash set costs nothing extra in false positives.
    fn pick_kind(&self, ctx: &ExecContext, source: &AipSource) -> AipSetKind {
        match &ctx.plan.node(source.op).kind {
            PhysKind::HashJoin {
                left_keys,
                right_keys,
                ..
            } if [left_keys, right_keys][source.input].as_slice() == [source.pos] => {
                AipSetKind::Hash
            }
            _ => self.config.set_kind,
        }
    }
}

impl ExecMonitor for CostBased {
    fn on_query_start(&self, ctx: &Arc<ExecContext>) {
        // A retried attempt re-runs the query under the same manager.
        // State keyed by operator index is per-run and must not leak
        // across attempts; the decision log deliberately persists — it is
        // the whole run's story, retries included.
        self.publish.start(ctx);
    }

    fn on_input_complete(&self, ctx: &Arc<ExecContext>, ev: &CompletionEvent<'_>) {
        self.publish.input_complete(ctx, ev);
        if !ev.view.complete() {
            return; // short-circuited state is partial: unusable (§III-B)
        }
        let Some(cands) = self.publish.candidates() else {
            return;
        };
        // In a partition-parallel plan, a completed input covers only its
        // partition's hash class. Only sets over the *input stream's*
        // partitioning class are priced (with the per-partition
        // cardinalities the estimator derives from the expanded plan): any
        // other set would be partial without a usable scope.
        let state_stream = ctx.plan.node(ev.op).inputs[ev.input];
        let sources: Vec<AipSource> = cands
            .sources_at(ev.op, ev.input)
            .into_iter()
            .filter(|s| {
                ctx.partitions.as_ref().is_none_or(|m| {
                    m.partition(ev.op).is_none() || m.in_class_at(state_stream, s.attr)
                })
            })
            .cloned()
            .collect();
        if sources.is_empty() {
            return;
        }
        // UPDATEESTIMATES (line 1).
        let actuals = self.gather_actuals(ctx);
        let est = Estimator::estimate_with_actuals(&ctx.plan, &actuals);

        for source in sources {
            // The buffered state's rows follow the *view's* layout, which
            // for aggregates/semijoins is the key layout, not the child
            // layout `source.pos` indexes. State that does not materialize
            // the attribute (e.g. a global aggregate) cannot source a set.
            let Some(view_pos) = ev.view.layout().iter().position(|a| *a == source.attr) else {
                continue;
            };
            self.stats.considered.fetch_add(1, Ordering::Relaxed);
            let (savings, create_cost, accepted) =
                self.estimate_benefit(ctx, &cands, &source, ev.view, view_pos, &est);
            let attr_name = ctx.plan.attrs.name(source.attr);
            if savings <= create_cost || accepted.is_empty() {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                self.decisions.lock().push(format!(
                    "reject {attr_name} from {}/in{}: savings {savings:.0} <= cost {create_cost:.0}",
                    source.op, source.input
                ));
                continue;
            }
            // Build the set by scanning the operator state — the real cost
            // the model just priced. The scan inserts positionally
            // ([`AipSetBuilder::insert_at`]): no key vector is built per
            // visited row, and exact sets clone a key only when it is new.
            // (A chunked gather + shared digest pass measured slower: the
            // per-row `Arc` clone a gather needs costs more than the hash.)
            let kind = self.pick_kind(ctx, &source);
            let mut builder = AipSetBuilder::new(
                kind,
                ev.view.len().max(self.config.min_expected_keys),
                self.config.fpr,
                self.config.n_hashes,
            );
            let positions = [view_pos];
            let t_build = std::time::Instant::now();
            ev.view.for_each(&mut |row| {
                builder.insert_at(row.key_hash(&positions), row.values(), &positions);
            });
            let set = Arc::new(builder.finish());
            self.stats.built.fetch_add(1, Ordering::Relaxed);
            self.decisions.lock().push(format!(
                "build {attr_name} ({kind:?}, {} keys) from {}/in{}: savings {savings:.0} > cost {create_cost:.0}; inject at {:?}",
                set.n_keys(),
                source.op,
                source.input,
                accepted.iter().map(|u| u.site).collect::<Vec<_>>()
            ));
            let merged = self
                .publish
                .publish(ctx, &cands, &source, set, t_build, &accepted);
            if let (Some(merged), Some(map)) = (merged, &ctx.partitions) {
                self.decisions.lock().push(format!(
                    "union {attr_name}: OR-merged {} partition sets ({} keys) plan-wide",
                    map.dop,
                    merged.n_keys()
                ));
            }
        }
    }
}

/// Approximate serialized size of a prospective AIP set, used to price
/// shipping before the set exists.
fn estimate_set_bytes(config: &AipConfig, n_keys: usize) -> f64 {
    match config.set_kind {
        AipSetKind::Bloom => {
            BloomFilter::bits_for(n_keys, config.fpr, config.n_hashes) as f64 / 8.0
        }
        AipSetKind::Hash => n_keys as f64 * 24.0,
        AipSetKind::MinMax => 64.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_byte_estimate_tracks_kind() {
        let bloom = estimate_set_bytes(&AipConfig::paper(), 10_000);
        // ~19.5 bits/key ≈ 2.4 bytes/key.
        assert!((20_000.0..30_000.0).contains(&bloom), "{bloom}");
        let hash = estimate_set_bytes(&AipConfig::hash_sets(), 10_000);
        assert!(hash > bloom * 5.0);
    }
}
