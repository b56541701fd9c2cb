//! A deterministic, single-threaded reference executor.
//!
//! Evaluates a physical plan bottom-up with full materialization — no
//! threads, channels, taps, or monitors. Differential tests compare the
//! threaded engine (under every AIP strategy) against this oracle: by the
//! semijoin-equivalence argument of §III-B, all of them must produce the
//! same multiset of rows.

use crate::operators::key_of;
use crate::physical::{PhysKind, PhysPlan};
use sip_common::{FxHashMap, FxHashSet, OpId, Result, Row};
use sip_expr::AggAccumulator;

/// Evaluate the plan and return the root's output rows (multiset order
/// unspecified but deterministic for a fixed plan).
pub fn execute_oracle(plan: &PhysPlan) -> Result<Vec<Row>> {
    plan.validate()?;
    let mut outputs: Vec<Option<Vec<Row>>> = vec![None; plan.nodes.len()];
    for node in &plan.nodes {
        let rows = eval_node(plan, node.id, &mut outputs)?;
        outputs[node.id.index()] = Some(rows);
    }
    Ok(outputs[plan.root.index()].take().expect("root evaluated"))
}

fn take_input(outputs: &mut [Option<Vec<Row>>], op: OpId) -> Vec<Row> {
    outputs[op.index()].take().expect("child already evaluated")
}

fn eval_node(plan: &PhysPlan, op: OpId, outputs: &mut [Option<Vec<Row>>]) -> Result<Vec<Row>> {
    let node = plan.node(op);
    match &node.kind {
        PhysKind::Scan {
            table, cols, part, ..
        } => Ok(table
            .rows()
            .iter()
            .map(|r| r.project(cols))
            .filter(|r| part.as_ref().is_none_or(|p| p.owns(r.key_hash(&[p.col]))))
            .collect()),
        PhysKind::Filter { predicate } => {
            let input = take_input(outputs, node.inputs[0]);
            let mut out = Vec::new();
            for row in input {
                if predicate.eval_bool(&row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PhysKind::Project { exprs } => {
            let input = take_input(outputs, node.inputs[0]);
            let mut out = Vec::with_capacity(input.len());
            for row in input {
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(&row)?);
                }
                out.push(Row::new(vals));
            }
            Ok(out)
        }
        PhysKind::HashJoin {
            left_keys,
            right_keys,
            residual,
        } => {
            let left = take_input(outputs, node.inputs[0]);
            let right = take_input(outputs, node.inputs[1]);
            // Classic build-probe join (build on right).
            let mut table: FxHashMap<u64, Vec<&Row>> = FxHashMap::default();
            for r in &right {
                if let Some((d, _)) = key_of(r, right_keys) {
                    table.entry(d).or_default().push(r);
                }
            }
            let mut out = Vec::new();
            for l in &left {
                let Some((d, key)) = key_of(l, left_keys) else {
                    continue;
                };
                if let Some(cands) = table.get(&d) {
                    for r in cands {
                        let matches = right_keys
                            .iter()
                            .zip(key.iter())
                            .all(|(&p, k)| r.get(p) == k);
                        if !matches {
                            continue;
                        }
                        let joined = l.concat(r);
                        match residual {
                            Some(pred) if !pred.eval_bool(&joined)? => {}
                            _ => out.push(joined),
                        }
                    }
                }
            }
            Ok(out)
        }
        PhysKind::Aggregate { group_cols, aggs } => {
            let input = take_input(outputs, node.inputs[0]);
            let mut groups: FxHashMap<u64, Vec<(Row, Vec<AggAccumulator>)>> = FxHashMap::default();
            for row in &input {
                let Some((d, _)) = key_of(row, group_cols) else {
                    continue;
                };
                let bucket = groups.entry(d).or_default();
                let found = bucket.iter_mut().find(|(k, _)| {
                    group_cols
                        .iter()
                        .enumerate()
                        .all(|(i, &p)| k.get(i) == row.get(p))
                });
                let entry = match found {
                    Some(e) => e,
                    None => {
                        bucket.push((
                            row.project(group_cols),
                            aggs.iter().map(|a| a.func.accumulator()).collect(),
                        ));
                        bucket.last_mut().unwrap()
                    }
                };
                for (acc, spec) in entry.1.iter_mut().zip(aggs.iter()) {
                    acc.update(&spec.input.eval(row)?)?;
                }
            }
            let mut out = Vec::new();
            for bucket in groups.values() {
                for (key, accs) in bucket {
                    let mut vals = key.values().to_vec();
                    for acc in accs {
                        vals.push(acc.finish());
                    }
                    out.push(Row::new(vals));
                }
            }
            Ok(out)
        }
        PhysKind::Distinct => {
            let input = take_input(outputs, node.inputs[0]);
            let mut seen: FxHashSet<Row> = FxHashSet::default();
            let mut out = Vec::new();
            for row in input {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PhysKind::Exchange {
            col,
            partition,
            dop,
        } => {
            let input = take_input(outputs, node.inputs[0]);
            Ok(input
                .into_iter()
                .filter(|r| sip_common::hash::partition_of(r.key_hash(&[*col]), *dop) == *partition)
                .collect())
        }
        PhysKind::Merge => {
            let mut out = Vec::new();
            for &c in &node.inputs {
                out.extend(take_input(outputs, c));
            }
            Ok(out)
        }
        // A writer's materialized "output" is its full input — the rows it
        // would spray over the mesh. Readers gather from every writer of
        // their mesh by *cloning* (not taking): a mesh has `dop` readers
        // but each writer has at most one tree parent, so ownership-based
        // take_input cannot model the all-to-all edge.
        PhysKind::ShuffleWrite { .. } => Ok(take_input(outputs, node.inputs[0])),
        PhysKind::ShuffleRead {
            mesh,
            partition,
            dop,
            ..
        } => {
            let mut out = Vec::new();
            for w in &plan.nodes {
                let PhysKind::ShuffleWrite { mesh: m, col, .. } = &w.kind else {
                    continue;
                };
                if m != mesh {
                    continue;
                }
                let rows = outputs[w.id.index()]
                    .as_ref()
                    .expect("mesh writers precede readers (validate_meshes)");
                out.extend(
                    rows.iter()
                        .filter(|r| {
                            sip_common::hash::partition_of(r.key_hash(&[*col]), *dop) == *partition
                        })
                        .cloned(),
                );
            }
            Ok(out)
        }
        PhysKind::SemiJoin {
            probe_keys,
            build_keys,
        } => {
            let probe = take_input(outputs, node.inputs[0]);
            let build = take_input(outputs, node.inputs[1]);
            let mut keys: FxHashMap<u64, Vec<Vec<sip_common::Value>>> = FxHashMap::default();
            for r in &build {
                if let Some((d, k)) = key_of(r, build_keys) {
                    let bucket = keys.entry(d).or_default();
                    if !bucket.iter().any(|x| x == &k) {
                        bucket.push(k);
                    }
                }
            }
            let mut out = Vec::new();
            for row in probe {
                let Some((d, k)) = key_of(&row, probe_keys) else {
                    continue;
                };
                if keys
                    .get(&d)
                    .map(|b| b.iter().any(|x| x == &k))
                    .unwrap_or(false)
                {
                    out.push(row);
                }
            }
            Ok(out)
        }
    }
}

/// Canonicalize a multiset of rows for comparison: sort by display form.
/// Floats are rounded to 6 decimals so accumulation order cannot flip a
/// comparison.
pub fn canonical(rows: &[Row]) -> Vec<String> {
    let mut keys: Vec<String> = rows
        .iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    sip_common::Value::Float(f) => format!("{:.6}", f),
                    other => other.to_string(),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    keys.sort_unstable();
    keys
}
