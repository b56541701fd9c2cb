//! Cardinality estimation in the style of the paper's optimizer (§V-A):
//! "its cost modeler does not require histograms: instead, it relies on
//! cardinality estimates and information about keys and foreign keys when
//! estimating the selectivity of join conditions ... assuming uniform
//! distribution and uncorrelated attributes."
//!
//! Estimates can be *re-derived mid-execution* from live operator counters —
//! the `UPDATEESTIMATES` service the cost-based AIP manager invokes
//! (Fig. 4, line 1).

use sip_common::{AttrId, FxHashMap, Value};
use sip_engine::{PhysKind, PhysPlan};
use sip_expr::{CmpOp, Expr};

/// Default selectivities when nothing better is known.
const DEFAULT_EQ_SEL: f64 = 0.05;
const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
const DEFAULT_LIKE_SEL: f64 = 0.1;

/// Column-level metadata propagated through the plan.
#[derive(Clone, Debug)]
pub struct ColMeta {
    /// Estimated distinct values.
    pub distinct: f64,
    /// Minimum (base columns only).
    pub min: Option<Value>,
    /// Maximum (base columns only).
    pub max: Option<Value>,
}

impl ColMeta {
    fn derived(rows: f64) -> ColMeta {
        ColMeta {
            distinct: rows.max(1.0),
            min: None,
            max: None,
        }
    }

    fn capped(&self, rows: f64) -> ColMeta {
        ColMeta {
            distinct: self.distinct.min(rows.max(1.0)),
            min: self.min.clone(),
            max: self.max.clone(),
        }
    }

    /// Yao's approximation: distinct values surviving when `rows_before`
    /// rows are reduced to `rows_after` by an uncorrelated predicate:
    /// `d' = d · (1 - (1 - r)^(n/d))` with `r = rows_after / rows_before`.
    fn scaled(&self, rows_before: f64, rows_after: f64) -> ColMeta {
        let d = self.distinct.max(1.0);
        let n = rows_before.max(1.0);
        let r = (rows_after / n).clamp(0.0, 1.0);
        let surviving = d * (1.0 - (1.0 - r).powf(n / d));
        ColMeta {
            distinct: surviving
                .max(if rows_after > 0.0 { 1.0 } else { 0.0 })
                .min(rows_after.max(1.0)),
            min: self.min.clone(),
            max: self.max.clone(),
        }
    }
}

/// Estimated properties of one operator's output.
#[derive(Clone, Debug)]
pub struct NodeEst {
    /// Estimated output rows.
    pub rows: f64,
    /// Per-attribute metadata for the output layout.
    pub cols: FxHashMap<AttrId, ColMeta>,
}

impl NodeEst {
    /// Distinct estimate for an attribute (1 when unknown, division-safe).
    pub fn distinct(&self, attr: AttrId) -> f64 {
        self.cols
            .get(&attr)
            .map(|c| c.distinct.max(1.0))
            .unwrap_or(1.0)
    }
}

/// Live observations for one operator, read from engine counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RuntimeActual {
    /// Rows emitted so far.
    pub rows_out: u64,
    /// Whether the operator has emitted EOF.
    pub finished: bool,
}

/// The estimator: per-node output estimates for a physical plan.
#[derive(Clone, Debug)]
pub struct Estimator {
    ests: Vec<NodeEst>,
}

impl Estimator {
    /// Static (pre-execution) estimation.
    pub fn estimate(plan: &PhysPlan) -> Estimator {
        Self::estimate_with_actuals(plan, &[])
    }

    /// Runtime re-estimation (`UPDATEESTIMATES`): nodes that have finished
    /// pin their actual cardinality; unfinished nodes use
    /// `max(estimate, observed-so-far)`. Nodes past the end of `actuals`
    /// keep their static estimate.
    pub fn estimate_with_actuals(plan: &PhysPlan, actuals: &[RuntimeActual]) -> Estimator {
        let mut ests: Vec<NodeEst> = Vec::with_capacity(plan.nodes.len());
        for node in &plan.nodes {
            let mut est = estimate_node(plan, node.id.index(), &ests);
            if let Some(a) = actuals.get(node.id.index()) {
                if a.finished {
                    est.rows = a.rows_out as f64;
                } else {
                    est.rows = est.rows.max(a.rows_out as f64);
                }
                let rows = est.rows;
                for meta in est.cols.values_mut() {
                    meta.distinct = meta.distinct.min(rows.max(1.0));
                }
            }
            ests.push(est);
        }
        Estimator { ests }
    }

    /// Estimate for one node.
    pub fn node(&self, op: sip_common::OpId) -> &NodeEst {
        &self.ests[op.index()]
    }

    /// All estimates.
    pub fn all(&self) -> &[NodeEst] {
        &self.ests
    }
}

fn estimate_node(plan: &PhysPlan, idx: usize, ests: &[NodeEst]) -> NodeEst {
    let node = &plan.nodes[idx];
    match &node.kind {
        PhysKind::Scan {
            table, cols, part, ..
        } => {
            // A hash-partitioned scan ships ~1/dop of the table. Only the
            // partitioning column's *value domain* splits 1/dop (values,
            // not rows, are partitioned); other columns keep their full
            // domain and thin out like any uncorrelated row reduction
            // (Yao, via ColMeta::scaled).
            let frac = part.as_ref().map(|p| 1.0 / p.dop as f64).unwrap_or(1.0);
            let full_rows = table.len() as f64;
            let rows = full_rows * frac;
            let part_col = part.as_ref().map(|p| p.col);
            let mut metas = FxHashMap::default();
            for (out_pos, &base_col) in cols.iter().enumerate() {
                let attr = node.layout[out_pos];
                let stats = &table.meta().column_stats[base_col];
                let full = ColMeta {
                    distinct: stats.distinct.max(1) as f64,
                    min: stats.min.clone(),
                    max: stats.max.clone(),
                };
                let meta = if part_col == Some(out_pos) {
                    ColMeta {
                        distinct: (full.distinct * frac).max(1.0),
                        ..full
                    }
                } else if frac < 1.0 {
                    full.scaled(full_rows, rows)
                } else {
                    full
                };
                metas.insert(attr, meta);
            }
            NodeEst { rows, cols: metas }
        }
        PhysKind::Filter { predicate } => {
            let child = &ests[node.inputs[0].index()];
            let child_layout = &plan.node(node.inputs[0]).layout;
            let sel = expr_selectivity(predicate, child_layout, child);
            let rows = (child.rows * sel).max(0.0);
            let cols = child
                .cols
                .iter()
                .map(|(a, m)| (*a, m.scaled(child.rows, rows)))
                .collect();
            NodeEst { rows, cols }
        }
        PhysKind::Project { exprs } => {
            let child = &ests[node.inputs[0].index()];
            let child_layout = &plan.node(node.inputs[0]).layout;
            let rows = child.rows;
            let mut cols = FxHashMap::default();
            for (i, e) in exprs.iter().enumerate() {
                let attr = node.layout[i];
                match e {
                    Expr::Col(p) => {
                        let src = child_layout[*p];
                        cols.insert(
                            attr,
                            child
                                .cols
                                .get(&src)
                                .cloned()
                                .unwrap_or(ColMeta::derived(rows)),
                        );
                    }
                    _ => {
                        cols.insert(attr, ColMeta::derived(rows));
                    }
                }
            }
            NodeEst { rows, cols }
        }
        PhysKind::HashJoin {
            left_keys,
            right_keys,
            residual,
        } => {
            let l = &ests[node.inputs[0].index()];
            let r = &ests[node.inputs[1].index()];
            let ll = &plan.node(node.inputs[0]).layout;
            let rl = &plan.node(node.inputs[1]).layout;
            let mut sel = 1.0;
            for (&lp, &rp) in left_keys.iter().zip(right_keys.iter()) {
                let dl = l.distinct(ll[lp]);
                let dr = r.distinct(rl[rp]);
                sel *= 1.0 / dl.max(dr).max(1.0);
            }
            let mut rows = (l.rows * r.rows * sel).max(0.0);
            if let Some(res) = residual {
                // Residual evaluated over the concatenated layout; build a
                // merged estimate for selectivity lookup.
                let mut merged = NodeEst {
                    rows,
                    cols: l.cols.clone(),
                };
                merged.cols.extend(r.cols.clone());
                rows *= expr_selectivity(res, &node.layout, &merged);
            }
            let mut cols = FxHashMap::default();
            for (a, m) in l.cols.iter() {
                cols.insert(*a, m.scaled(l.rows * r.rows.max(1.0), rows));
            }
            for (a, m) in r.cols.iter() {
                cols.insert(*a, m.scaled(r.rows * l.rows.max(1.0), rows));
            }
            NodeEst { rows, cols }
        }
        PhysKind::Aggregate { group_cols, .. } => {
            let child = &ests[node.inputs[0].index()];
            let child_layout = &plan.node(node.inputs[0]).layout;
            let mut groups = 1.0f64;
            for &g in group_cols {
                groups *= child.distinct(child_layout[g]);
            }
            let rows = groups
                .min(child.rows)
                .max(if child.rows > 0.0 { 1.0 } else { 0.0 });
            let mut cols = FxHashMap::default();
            for (i, &g) in group_cols.iter().enumerate() {
                let attr = node.layout[i];
                let src = child_layout[g];
                cols.insert(
                    attr,
                    child
                        .cols
                        .get(&src)
                        .cloned()
                        .unwrap_or(ColMeta::derived(rows))
                        .capped(rows),
                );
            }
            for &attr in &node.layout[group_cols.len()..] {
                cols.insert(attr, ColMeta::derived(rows));
            }
            NodeEst { rows, cols }
        }
        PhysKind::Distinct => {
            let child = &ests[node.inputs[0].index()];
            let mut combos = 1.0f64;
            for &a in &node.layout {
                combos *= child.distinct(a);
            }
            let rows = combos.min(child.rows);
            let cols = child
                .cols
                .iter()
                .map(|(a, m)| (*a, m.capped(rows)))
                .collect();
            NodeEst { rows, cols }
        }
        PhysKind::SemiJoin {
            probe_keys,
            build_keys,
        } => {
            let p = &ests[node.inputs[0].index()];
            let b = &ests[node.inputs[1].index()];
            let pl = &plan.node(node.inputs[0]).layout;
            let bl = &plan.node(node.inputs[1]).layout;
            let mut sel = 1.0f64;
            for (&pp, &bp) in probe_keys.iter().zip(build_keys.iter()) {
                let dp = p.distinct(pl[pp]);
                let db = b.distinct(bl[bp]);
                sel *= (db / dp).min(1.0);
            }
            let rows = p.rows * sel;
            let cols = p
                .cols
                .iter()
                .map(|(a, m)| (*a, m.scaled(p.rows, rows)))
                .collect();
            NodeEst { rows, cols }
        }
        PhysKind::ShuffleWrite { .. } => {
            // A writer forwards every input row (over the mesh); its tree
            // output is empty but its row counters see the full stream.
            ests[node.inputs[0].index()].clone()
        }
        PhysKind::ShuffleRead { mesh, dop, .. } => {
            // Each reader owns 1/dop of the mesh's total rows, which is
            // the sum over the mesh's writers (all of which precede every
            // reader in arena order, so their estimates exist).
            let mut total = 0.0f64;
            let mut cols: FxHashMap<sip_common::AttrId, ColMeta> = FxHashMap::default();
            for w in &plan.nodes {
                if let PhysKind::ShuffleWrite { mesh: m, .. } = &w.kind {
                    if m == mesh {
                        let west = &ests[w.id.index()];
                        total += west.rows;
                        for (a, meta) in west.cols.iter() {
                            cols.entry(*a).or_insert_with(|| meta.clone());
                        }
                    }
                }
            }
            let rows = total / (*dop).max(1) as f64;
            let cols = cols
                .into_iter()
                .map(|(a, m)| (a, m.scaled(total.max(1.0), rows)))
                .collect();
            NodeEst { rows, cols }
        }
        PhysKind::Exchange { dop, .. } => {
            // A hash repartition keeps 1/dop of the rows (and of the key
            // values — partitioning splits the value domain).
            let child = &ests[node.inputs[0].index()];
            let frac = 1.0 / (*dop).max(1) as f64;
            let rows = child.rows * frac;
            let cols = child
                .cols
                .iter()
                .map(|(a, m)| (*a, m.scaled(child.rows, rows)))
                .collect();
            NodeEst { rows, cols }
        }
        PhysKind::Merge => {
            // Union of partition streams: rows add. Distinct counts add
            // only for the partitioning column (whose value domain is
            // split); lacking that knowledge here, summing capped by total
            // rows keeps every column inside the sound
            // [max(children), min(sum, rows)] interval. Min/max envelopes
            // widen to cover every child.
            let mut rows = 0.0;
            let mut cols: FxHashMap<sip_common::AttrId, ColMeta> = FxHashMap::default();
            for &c in &node.inputs {
                let child = &ests[c.index()];
                rows += child.rows;
                for (a, m) in child.cols.iter() {
                    cols.entry(*a)
                        .and_modify(|acc| {
                            acc.distinct += m.distinct;
                            acc.min = match (acc.min.take(), m.min.clone()) {
                                (Some(x), Some(y)) => Some(if y < x { y } else { x }),
                                _ => None,
                            };
                            acc.max = match (acc.max.take(), m.max.clone()) {
                                (Some(x), Some(y)) => Some(if y > x { y } else { x }),
                                _ => None,
                            };
                        })
                        .or_insert_with(|| m.clone());
                }
            }
            for meta in cols.values_mut() {
                meta.distinct = meta.distinct.min(rows.max(1.0));
            }
            NodeEst { rows, cols }
        }
    }
}

/// Heuristic selectivity of a bound predicate, given the host layout and
/// the input estimate.
pub fn expr_selectivity(e: &Expr, layout: &[AttrId], est: &NodeEst) -> f64 {
    match e {
        Expr::And(l, r) => expr_selectivity(l, layout, est) * expr_selectivity(r, layout, est),
        Expr::Or(l, r) => {
            let a = expr_selectivity(l, layout, est);
            let b = expr_selectivity(r, layout, est);
            (a + b - a * b).clamp(0.0, 1.0)
        }
        Expr::Not(x) => 1.0 - expr_selectivity(x, layout, est),
        Expr::Like(inner, pattern) => {
            if let Expr::Col(_) = inner.as_ref() {
                if !pattern.contains('%') && !pattern.contains('_') {
                    return eq_sel_of(inner, layout, est);
                }
            }
            DEFAULT_LIKE_SEL
        }
        Expr::Cmp(l, op, r) => cmp_selectivity(l, *op, r, layout, est),
        // A bare boolean column/expression.
        _ => 0.5,
    }
}

fn eq_sel_of(col: &Expr, layout: &[AttrId], est: &NodeEst) -> f64 {
    if let Expr::Col(p) = col {
        let d = est.distinct(layout[*p]);
        return (1.0 / d).min(1.0);
    }
    DEFAULT_EQ_SEL
}

fn cmp_selectivity(l: &Expr, op: CmpOp, r: &Expr, layout: &[AttrId], est: &NodeEst) -> f64 {
    // Normalize to column-op-literal when possible.
    let (p, op, v) = match (l, r) {
        (Expr::Col(p), Expr::Lit(v)) => (p, op, v),
        (Expr::Lit(v), Expr::Col(p)) => (p, op.flip(), v),
        (Expr::Col(cl), Expr::Col(cr)) => {
            return if op == CmpOp::Eq {
                let dl = est.distinct(layout[*cl]);
                let dr = est.distinct(layout[*cr]);
                (1.0 / dl.max(dr)).min(1.0)
            } else {
                DEFAULT_RANGE_SEL
            };
        }
        _ => {
            return match op {
                CmpOp::Eq => DEFAULT_EQ_SEL,
                CmpOp::Ne => 1.0 - DEFAULT_EQ_SEL,
                _ => DEFAULT_RANGE_SEL,
            }
        }
    };
    let attr = layout[*p];
    let meta = est.cols.get(&attr);
    match op {
        CmpOp::Eq => meta
            .map(|m| (1.0 / m.distinct.max(1.0)).min(1.0))
            .unwrap_or(DEFAULT_EQ_SEL),
        CmpOp::Ne => meta
            .map(|m| 1.0 - (1.0 / m.distinct.max(1.0)).min(1.0))
            .unwrap_or(1.0 - DEFAULT_EQ_SEL),
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            if let Some(m) = meta {
                if let (Some(min), Some(max)) = (&m.min, &m.max) {
                    if let Some(frac) = range_fraction(min, max, v) {
                        return match op {
                            CmpOp::Lt | CmpOp::Le => frac,
                            _ => 1.0 - frac,
                        }
                        .clamp(0.0, 1.0);
                    }
                }
            }
            DEFAULT_RANGE_SEL
        }
    }
}

/// Fraction of the [min, max] interval below `v` (uniformity assumption).
fn range_fraction(min: &Value, max: &Value, v: &Value) -> Option<f64> {
    let to_f = |x: &Value| -> Option<f64> {
        match x {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Date(d) => Some(d.days() as f64),
            _ => None,
        }
    };
    let (lo, hi, x) = (to_f(min)?, to_f(max)?, to_f(v)?);
    if hi <= lo {
        return Some(if x >= hi { 1.0 } else { 0.0 });
    }
    Some(((x - lo) / (hi - lo)).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_data::{generate, Catalog, TpchConfig};
    use sip_engine::lower;
    use sip_expr::AggFunc;
    use sip_plan::QueryBuilder;

    fn catalog() -> Catalog {
        generate(&TpchConfig {
            scale_factor: 0.005,
            seed: 5,
            zipf_z: 0.0,
        })
        .unwrap()
    }

    fn plan_with_filter(c: &Catalog) -> PhysPlan {
        let mut q = QueryBuilder::new(c);
        let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
        let pred = p.col("p_size").unwrap().eq(Expr::lit(1i64));
        let p = q.filter(p, pred);
        let ps = q.scan("partsupp", "ps", &["ps_partkey"]).unwrap();
        let j = q.join(p, ps, &[("p.p_partkey", "ps.ps_partkey")]).unwrap();
        let plan = j.into_plan();
        lower(&plan, q.into_attrs(), c).unwrap()
    }

    #[test]
    fn scan_estimates_match_stats() {
        let c = catalog();
        let plan = plan_with_filter(&c);
        let est = Estimator::estimate(&plan);
        let scan = &plan.nodes[0];
        let n_parts = c.get("part").unwrap().len() as f64;
        assert_eq!(est.node(scan.id).rows, n_parts);
        // partkey is a key: distinct == rows.
        let pk = scan.layout[0];
        assert_eq!(est.node(scan.id).distinct(pk), n_parts);
    }

    #[test]
    fn equality_filter_uses_distinct() {
        let c = catalog();
        let plan = plan_with_filter(&c);
        let est = Estimator::estimate(&plan);
        let filter = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, PhysKind::Filter { .. }))
            .unwrap();
        let scan_est = est.node(plan.node(filter.id).inputs[0]).rows;
        let d_size = c
            .get("part")
            .unwrap()
            .distinct(c.get("part").unwrap().schema().index_of("p_size").unwrap())
            as f64;
        let expected = scan_est / d_size;
        let got = est.node(filter.id).rows;
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn fk_join_estimates_child_rows() {
        // part ⋈ partsupp on partkey: |partsupp| rows expected (before the
        // size filter); with the filter, scaled by its selectivity.
        let c = catalog();
        let plan = plan_with_filter(&c);
        let est = Estimator::estimate(&plan);
        let join = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, PhysKind::HashJoin { .. }))
            .unwrap();
        let filtered_parts = est.node(plan.node(join.id).inputs[0]).rows;
        let partsupp = c.get("partsupp").unwrap().len() as f64;
        let n_parts = c.get("part").unwrap().len() as f64;
        let expected = filtered_parts * partsupp / n_parts;
        let got = est.node(join.id).rows;
        assert!(
            (got / expected - 1.0).abs() < 0.05,
            "{got} vs expected {expected}"
        );
    }

    #[test]
    fn aggregate_groups_bounded_by_distinct() {
        let c = catalog();
        let mut q = QueryBuilder::new(&c);
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let qty = ps.col("ps_availqty").unwrap();
        let agg = q
            .aggregate(ps, &["ps_partkey"], &[(AggFunc::Sum, qty, "avail")])
            .unwrap();
        let plan = lower(agg.plan(), q.attrs().clone(), &c).unwrap();
        let est = Estimator::estimate(&plan);
        let n_parts = c.get("part").unwrap().len() as f64;
        let got = est.node(plan.root).rows;
        assert!((got - n_parts).abs() < 1.0, "{got} vs {n_parts}");
    }

    #[test]
    fn range_fraction_interpolates() {
        let f = range_fraction(&Value::Int(0), &Value::Int(100), &Value::Int(25)).unwrap();
        assert!((f - 0.25).abs() < 1e-9);
        let d1 = Value::Date(sip_common::Date::parse("1992-01-01").unwrap());
        let d2 = Value::Date(sip_common::Date::parse("1996-01-01").unwrap());
        let dm = Value::Date(sip_common::Date::parse("1994-01-01").unwrap());
        let f = range_fraction(&d1, &d2, &dm).unwrap();
        assert!((0.4..0.6).contains(&f));
        assert!(range_fraction(&Value::str("a"), &Value::str("z"), &Value::str("m")).is_none());
    }

    #[test]
    fn actuals_override_when_finished() {
        let c = catalog();
        let plan = plan_with_filter(&c);
        let mut actuals = vec![RuntimeActual::default(); plan.nodes.len()];
        actuals[0] = RuntimeActual {
            rows_out: 7,
            finished: true,
        };
        let est = Estimator::estimate_with_actuals(&plan, &actuals);
        assert_eq!(est.node(plan.nodes[0].id).rows, 7.0);
        // Unfinished nodes take max(estimate, observed).
        actuals[0].finished = false;
        actuals[0].rows_out = 1_000_000;
        let est = Estimator::estimate_with_actuals(&plan, &actuals);
        assert_eq!(est.node(plan.nodes[0].id).rows, 1_000_000.0);
    }

    #[test]
    fn like_and_default_selectivities() {
        let c = catalog();
        let plan = plan_with_filter(&c);
        let est = Estimator::estimate(&plan);
        let scan = &plan.nodes[0];
        let e = Expr::Col(1).like("%TIN");
        let s = expr_selectivity(&e, &scan.layout, est.node(scan.id));
        assert!((s - DEFAULT_LIKE_SEL).abs() < 1e-9);
        let and = Expr::Col(1)
            .gt(Expr::lit(10i64))
            .and(Expr::Col(1).le(Expr::lit(20i64)));
        let s = expr_selectivity(&and, &scan.layout, est.node(scan.id));
        assert!(s > 0.0 && s < 1.0);
    }
}
