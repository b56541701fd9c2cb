//! Physical plans: flat operator arenas ready for threaded execution.
//!
//! A [`PhysPlan`] is a tree of operators stored in post-order (children
//! before parents) so the AIP manager can walk ancestors, depths, and
//! attribute locations in O(1)-ish time — the traversals `AIPCANDIDATES`
//! and `ESTIMATEBENEFIT` (Figs. 3-4) perform at runtime.

use sip_common::{plan_err, AttrId, OpId, Result};
use sip_data::{Catalog, Table};
use sip_expr::{AggFunc, Expr};
use sip_plan::{AttrCatalog, LogicalPlan};
use std::fmt::Write as _;
use std::sync::Arc;

/// One bound aggregate: function + bound input expression.
#[derive(Clone, Debug)]
pub struct BoundAgg {
    /// The aggregate function.
    pub func: AggFunc,
    /// Input expression bound to the aggregate input's layout.
    pub input: Expr,
}

/// Hash-partition pushdown on a scan: emit only the rows owned by one
/// partition of a `dop`-way hash partitioning (see `sip-parallel`).
///
/// Semantically this is an [`PhysKind::Exchange`] fused into the scan. The
/// fusion matters for delayed sources: the delay model charges transmission
/// time per *shipped* row, so a partitioned scan of a slow source pays only
/// its own partition's share — the distributed-pushdown effect that lets
/// `dop` partitions overlap source latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanPartition {
    /// Position in the scan's *output* layout whose value is hashed.
    pub col: usize,
    /// This scan's partition index (`< dop`).
    pub partition: u32,
    /// Total number of partitions.
    pub dop: u32,
}

impl ScanPartition {
    /// Does this partition own `digest`?
    #[inline]
    pub fn owns(&self, digest: u64) -> bool {
        sip_common::hash::partition_of(digest, self.dop) == self.partition
    }
}

/// The operator algebra the engine executes.
#[derive(Clone, Debug)]
pub enum PhysKind {
    /// Scan an in-memory table, emitting selected columns.
    Scan {
        /// The table.
        table: Arc<Table>,
        /// Base-table column positions to emit, in output order.
        cols: Vec<usize>,
        /// The scan binding (used to look up delay models).
        binding: String,
        /// Hash-partition pushdown, if this scan belongs to one partition
        /// of a parallel plan.
        part: Option<ScanPartition>,
    },
    /// Row filter; predicate bound to the input layout.
    Filter {
        /// Bound predicate.
        predicate: Expr,
    },
    /// Projection; expressions bound to the input layout.
    Project {
        /// Bound expressions, in output order.
        exprs: Vec<Expr>,
    },
    /// Symmetric (doubly-pipelined) hash join.
    HashJoin {
        /// Key positions in the left input's layout.
        left_keys: Vec<usize>,
        /// Key positions in the right input's layout.
        right_keys: Vec<usize>,
        /// Residual predicate bound to the concatenated layout.
        residual: Option<Expr>,
    },
    /// Hash aggregation (blocking).
    Aggregate {
        /// Group-key positions in the input layout.
        group_cols: Vec<usize>,
        /// Aggregates.
        aggs: Vec<BoundAgg>,
    },
    /// Pipelined duplicate elimination over the whole row.
    Distinct,
    /// Pipelined semijoin: emit input-0 rows that match input-1 (the build
    /// side — e.g. a magic set). Unmatched probe rows are buffered until the
    /// build completes, then discarded.
    SemiJoin {
        /// Key positions in the probe (input 0) layout.
        probe_keys: Vec<usize>,
        /// Key positions in the build (input 1) layout.
        build_keys: Vec<usize>,
    },
    /// Hash-repartition boundary: forward only the input rows owned by one
    /// partition of a `dop`-way hash partitioning. Inserted by
    /// `sip-parallel` above replicated subtrees feeding co-partitioned
    /// joins; the scan-level fusion is [`ScanPartition`].
    Exchange {
        /// Position in the input layout whose value is hashed.
        col: usize,
        /// The partition this operator keeps (`< dop`).
        partition: u32,
        /// Total number of partitions.
        dop: u32,
    },
    /// Union of N same-layout input streams: forwards every input batch,
    /// finishing when all inputs reach EOF. The join point where partition
    /// clones rejoin the serial tail of a parallel plan.
    Merge,
    /// Producer half of an all-to-all hash repartition (shuffle): routes
    /// every input row to the [`PhysKind::ShuffleRead`] of mesh `mesh`
    /// owning `hash(col) % dop`, over a `writers × dop` grid of bounded
    /// channels held by the [`crate::ExecContext`]. Its tree output carries
    /// no rows — only EOF, consumed by the paired reader — so the plan
    /// stays a valid tree while data crosses partition boundaries sideways.
    ShuffleWrite {
        /// Mesh this writer feeds (shared by its readers).
        mesh: u32,
        /// Position in the input layout whose value is hashed for routing.
        col: usize,
        /// This writer's index in the mesh (`< writers` of the readers).
        writer: u32,
        /// Number of consumer partitions (the hash modulus).
        dop: u32,
    },
    /// Consumer half of a shuffle: drains the `writers` mesh channels
    /// addressed to `partition`, emitting their union downstream. Finishes
    /// when every writer has sent EOF. Takes the paired writer (same index)
    /// as an optional tree input purely for plan structure; a distribute
    /// mesh (`writers == 1`) pairs only partition 0.
    ShuffleRead {
        /// Mesh this reader drains.
        mesh: u32,
        /// The partition of the hash space this reader owns (`< dop`).
        partition: u32,
        /// Number of writers feeding the mesh.
        writers: u32,
        /// Total consumer partitions.
        dop: u32,
    },
}

impl PhysKind {
    /// Does this operator buffer state that AIP can summarize?
    pub fn is_stateful(&self) -> bool {
        matches!(
            self,
            PhysKind::HashJoin { .. }
                | PhysKind::Aggregate { .. }
                | PhysKind::Distinct
                | PhysKind::SemiJoin { .. }
        )
    }

    /// Short operator name.
    pub fn name(&self) -> &'static str {
        match self {
            PhysKind::Scan { .. } => "Scan",
            PhysKind::Filter { .. } => "Filter",
            PhysKind::Project { .. } => "Project",
            PhysKind::HashJoin { .. } => "HashJoin",
            PhysKind::Aggregate { .. } => "Aggregate",
            PhysKind::Distinct => "Distinct",
            PhysKind::SemiJoin { .. } => "SemiJoin",
            PhysKind::Exchange { .. } => "Exchange",
            PhysKind::Merge => "Merge",
            PhysKind::ShuffleWrite { .. } => "ShuffleWrite",
            PhysKind::ShuffleRead { .. } => "ShuffleRead",
        }
    }
}

/// One node of a physical plan.
#[derive(Clone, Debug)]
pub struct PhysNode {
    /// This node's id (its index in the arena).
    pub id: OpId,
    /// The operator.
    pub kind: PhysKind,
    /// Children, in input order.
    pub inputs: Vec<OpId>,
    /// Output layout: the attribute at each output position.
    pub layout: Vec<AttrId>,
}

/// A complete physical plan.
#[derive(Clone, Debug)]
pub struct PhysPlan {
    /// Operator arena in post-order; the root is the last node.
    pub nodes: Vec<PhysNode>,
    /// Root operator.
    pub root: OpId,
    /// The query's attribute catalog (names/types for display & AIP).
    pub attrs: AttrCatalog,
}

impl PhysPlan {
    /// Build from parts, validating tree structure.
    pub fn from_nodes(nodes: Vec<PhysNode>, root: OpId, attrs: AttrCatalog) -> Result<PhysPlan> {
        let plan = PhysPlan { nodes, root, attrs };
        plan.validate()?;
        Ok(plan)
    }

    /// Check indices, arities, and post-ordering.
    pub fn validate(&self) -> Result<()> {
        if self.root.index() >= self.nodes.len() {
            return Err(plan_err!("root {:?} out of range", self.root));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.index() != i {
                return Err(plan_err!("node at {i} has id {}", n.id));
            }
            match &n.kind {
                // Merge is the one variadic operator: any positive arity.
                PhysKind::Merge => {
                    if n.inputs.is_empty() {
                        return Err(plan_err!("node {} (Merge) needs at least one input", n.id));
                    }
                    for &c in &n.inputs {
                        if c.index() < i && self.nodes[c.index()].layout != n.layout {
                            return Err(plan_err!(
                                "node {} (Merge) input {c} layout differs from merge layout",
                                n.id
                            ));
                        }
                    }
                }
                // A shuffle reader's real inputs arrive over the mesh; its
                // single optional tree input is the paired writer (EOF
                // only). Distribute meshes (one writer, dop readers) leave
                // the unpaired readers with no tree input at all.
                PhysKind::ShuffleRead { .. } => {
                    if n.inputs.len() > 1 {
                        return Err(plan_err!(
                            "node {} (ShuffleRead) takes at most one tree input",
                            n.id
                        ));
                    }
                    if let Some(&c) = n.inputs.first() {
                        if !matches!(self.nodes[c.index()].kind, PhysKind::ShuffleWrite { .. }) {
                            return Err(plan_err!(
                                "node {} (ShuffleRead) tree input {c} is not a ShuffleWrite",
                                n.id
                            ));
                        }
                    }
                }
                other => {
                    let arity = match other {
                        PhysKind::Scan { .. } => 0,
                        PhysKind::HashJoin { .. } | PhysKind::SemiJoin { .. } => 2,
                        _ => 1,
                    };
                    if n.inputs.len() != arity {
                        return Err(plan_err!(
                            "node {} ({}) expects {arity} inputs, has {}",
                            n.id,
                            n.kind.name(),
                            n.inputs.len()
                        ));
                    }
                }
            }
            if let Some((col, partition, dop)) = match &n.kind {
                PhysKind::Scan { part: Some(p), .. } => Some((p.col, p.partition, p.dop)),
                PhysKind::Exchange {
                    col,
                    partition,
                    dop,
                } => Some((*col, *partition, *dop)),
                // A writer routes on `col` across `dop` partitions; it has
                // no partition index of its own, so check `col` against a
                // synthetic in-range partition.
                PhysKind::ShuffleWrite { col, dop, .. } => Some((*col, 0, *dop)),
                PhysKind::ShuffleRead { partition, dop, .. } => Some((0, *partition, *dop)),
                _ => None,
            } {
                if dop == 0 || partition >= dop {
                    return Err(plan_err!(
                        "node {} has partition {partition} out of range for dop {dop}",
                        n.id
                    ));
                }
                if col >= n.layout.len() {
                    return Err(plan_err!(
                        "node {} partitions on column {col} outside its layout",
                        n.id
                    ));
                }
            }
            for c in &n.inputs {
                if c.index() >= i {
                    return Err(plan_err!("node {} references non-prior child {c}", n.id));
                }
            }
        }
        self.validate_meshes()
    }

    /// Cross-node shuffle-mesh invariants: each mesh has exactly `writers`
    /// writers (indices 0..writers) and `dop` readers (partitions 0..dop),
    /// all agreeing on the grid shape and row layout, with every writer
    /// preceding every reader in arena order (so the single-threaded oracle
    /// can materialize writers before readers gather from them).
    fn validate_meshes(&self) -> Result<()> {
        #[derive(Default)]
        struct Mesh {
            writer_idx: Vec<u32>,
            reader_parts: Vec<u32>,
            dops: Vec<u32>,
            expected_writers: Vec<u32>,
            layouts: Vec<usize>, // arena index of each member, for layout checks
            last_writer: usize,
            first_reader: usize,
        }
        let mut meshes: std::collections::BTreeMap<u32, Mesh> = std::collections::BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            match &n.kind {
                PhysKind::ShuffleWrite {
                    mesh, writer, dop, ..
                } => {
                    let e = meshes.entry(*mesh).or_insert_with(|| Mesh {
                        first_reader: usize::MAX,
                        ..Mesh::default()
                    });
                    e.writer_idx.push(*writer);
                    e.dops.push(*dop);
                    e.layouts.push(i);
                    e.last_writer = e.last_writer.max(i);
                }
                PhysKind::ShuffleRead {
                    mesh,
                    partition,
                    writers,
                    dop,
                } => {
                    let e = meshes.entry(*mesh).or_insert_with(|| Mesh {
                        first_reader: usize::MAX,
                        ..Mesh::default()
                    });
                    e.reader_parts.push(*partition);
                    e.dops.push(*dop);
                    e.expected_writers.push(*writers);
                    e.layouts.push(i);
                    e.first_reader = e.first_reader.min(i);
                }
                _ => {}
            }
        }
        for (mesh, mut m) in meshes {
            let dop = m.dops[0];
            if m.dops.iter().any(|&d| d != dop) {
                return Err(plan_err!("mesh {mesh} nodes disagree on dop"));
            }
            let writers = m.writer_idx.len() as u32;
            if m.reader_parts.len() as u32 != dop {
                return Err(plan_err!(
                    "mesh {mesh} has {} readers for dop {dop}",
                    m.reader_parts.len()
                ));
            }
            if m.expected_writers.iter().any(|&w| w != writers) {
                return Err(plan_err!(
                    "mesh {mesh} readers expect a writer count other than {writers}"
                ));
            }
            m.writer_idx.sort_unstable();
            m.reader_parts.sort_unstable();
            if m.writer_idx.iter().enumerate().any(|(i, &w)| w != i as u32)
                || m.reader_parts
                    .iter()
                    .enumerate()
                    .any(|(i, &p)| p != i as u32)
            {
                return Err(plan_err!("mesh {mesh} writer/partition indices not dense"));
            }
            let layout = &self.nodes[m.layouts[0]].layout;
            if m.layouts.iter().any(|&i| &self.nodes[i].layout != layout) {
                return Err(plan_err!("mesh {mesh} members disagree on layout"));
            }
            if m.last_writer > m.first_reader {
                return Err(plan_err!(
                    "mesh {mesh} has a writer after a reader in arena order"
                ));
            }
        }
        Ok(())
    }

    /// Node accessor.
    pub fn node(&self, op: OpId) -> &PhysNode {
        &self.nodes[op.index()]
    }

    /// The parent of `op`, if any.
    pub fn parent(&self, op: OpId) -> Option<OpId> {
        self.nodes
            .iter()
            .find(|n| n.inputs.contains(&op))
            .map(|n| n.id)
    }

    /// Path from `op` (exclusive) to the root (inclusive).
    pub fn ancestors(&self, op: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut cur = op;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Depth of `op` below the root (root = 0).
    pub fn depth(&self, op: OpId) -> usize {
        self.ancestors(op).len()
    }

    /// The other input of `op`'s parent join, when the parent is a join.
    pub fn join_sibling(&self, op: OpId) -> Option<OpId> {
        let p = self.parent(op)?;
        let pn = self.node(p);
        if !matches!(pn.kind, PhysKind::HashJoin { .. }) {
            return None;
        }
        pn.inputs.iter().copied().find(|&c| c != op)
    }

    /// Nodes (in arena order = topological) whose output layout carries
    /// `attr`.
    pub fn nodes_with_attr(&self, attr: AttrId) -> Vec<OpId> {
        self.nodes
            .iter()
            .filter(|n| n.layout.contains(&attr))
            .map(|n| n.id)
            .collect()
    }

    /// The lowest (first-producing) node carrying `attr`.
    pub fn introducer(&self, attr: AttrId) -> Option<OpId> {
        self.nodes_with_attr(attr).into_iter().next()
    }

    /// Pretty-print the plan tree.
    pub fn display(&self) -> String {
        let mut out = String::new();
        self.fmt_node(self.root, 0, &mut out);
        out
    }

    fn fmt_node(&self, op: OpId, depth: usize, out: &mut String) {
        let n = self.node(op);
        let pad = "  ".repeat(depth);
        let detail = match &n.kind {
            PhysKind::Scan {
                table,
                binding,
                part,
                ..
            } => {
                let part = match part {
                    Some(p) => format!(" [part {}/{}]", p.partition, p.dop),
                    None => String::new(),
                };
                format!(
                    "{} as {} ({} rows){part}",
                    table.name(),
                    binding,
                    table.len()
                )
            }
            PhysKind::Filter { predicate } => format!("{predicate}"),
            PhysKind::Project { exprs } => format!("{} exprs", exprs.len()),
            PhysKind::HashJoin {
                left_keys,
                right_keys,
                ..
            } => format!("L{left_keys:?} = R{right_keys:?}"),
            PhysKind::Aggregate { group_cols, aggs } => {
                format!("group{group_cols:?} x {} aggs", aggs.len())
            }
            PhysKind::Distinct => String::new(),
            PhysKind::SemiJoin {
                probe_keys,
                build_keys,
            } => {
                format!("P{probe_keys:?} ⋉ B{build_keys:?}")
            }
            PhysKind::Exchange {
                col,
                partition,
                dop,
            } => format!("hash(col{col}) -> {partition}/{dop}"),
            PhysKind::Merge => format!("{} inputs", n.inputs.len()),
            PhysKind::ShuffleWrite {
                mesh,
                col,
                writer,
                dop,
            } => format!("mesh{mesh} hash(col{col}) from {writer} -> {dop} parts"),
            PhysKind::ShuffleRead {
                mesh,
                partition,
                writers,
                dop,
            } => format!("mesh{mesh} part {partition}/{dop} <- {writers} writers"),
        };
        let names: Vec<String> = n.layout.iter().map(|&a| self.attrs.name(a)).collect();
        let _ = writeln!(
            out,
            "{pad}{} {} {} [{}]",
            n.id,
            n.kind.name(),
            detail,
            names.join(", ")
        );
        for &c in &n.inputs {
            self.fmt_node(c, depth + 1, out);
        }
    }
}

/// Lower a validated logical plan into a physical plan, binding every
/// expression to concrete row positions and resolving tables in `catalog`.
pub fn lower(plan: &LogicalPlan, attrs: AttrCatalog, catalog: &Catalog) -> Result<PhysPlan> {
    plan.validate()?;
    let mut nodes: Vec<PhysNode> = Vec::new();
    let root = lower_node(plan, catalog, &mut nodes)?;
    PhysPlan::from_nodes(nodes, root, attrs)
}

fn push_node(
    nodes: &mut Vec<PhysNode>,
    kind: PhysKind,
    inputs: Vec<OpId>,
    layout: Vec<AttrId>,
) -> OpId {
    let id = OpId(nodes.len() as u32);
    nodes.push(PhysNode {
        id,
        kind,
        inputs,
        layout,
    });
    id
}

fn lower_node(plan: &LogicalPlan, catalog: &Catalog, nodes: &mut Vec<PhysNode>) -> Result<OpId> {
    match plan {
        LogicalPlan::Scan {
            table,
            binding,
            cols,
        } => {
            let t = catalog.get(table)?;
            let positions: Vec<usize> = cols.iter().map(|&(p, _)| p).collect();
            let layout: Vec<AttrId> = cols.iter().map(|&(_, a)| a).collect();
            Ok(push_node(
                nodes,
                PhysKind::Scan {
                    table: t,
                    cols: positions,
                    binding: binding.clone(),
                    part: None,
                },
                vec![],
                layout,
            ))
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = lower_node(input, catalog, nodes)?;
            let layout = nodes[child.index()].layout.clone();
            let bound = predicate.bind(&layout)?;
            Ok(push_node(
                nodes,
                PhysKind::Filter { predicate: bound },
                vec![child],
                layout,
            ))
        }
        LogicalPlan::Project { input, exprs } => {
            let child = lower_node(input, catalog, nodes)?;
            let child_layout = nodes[child.index()].layout.clone();
            let mut bound = Vec::with_capacity(exprs.len());
            let mut layout = Vec::with_capacity(exprs.len());
            for (e, out_attr) in exprs {
                bound.push(e.bind(&child_layout)?);
                layout.push(*out_attr);
            }
            Ok(push_node(
                nodes,
                PhysKind::Project { exprs: bound },
                vec![child],
                layout,
            ))
        }
        LogicalPlan::Join {
            left,
            right,
            keys,
            residual,
        } => {
            let l = lower_node(left, catalog, nodes)?;
            let r = lower_node(right, catalog, nodes)?;
            let ll = nodes[l.index()].layout.clone();
            let rl = nodes[r.index()].layout.clone();
            let mut left_keys = Vec::with_capacity(keys.len());
            let mut right_keys = Vec::with_capacity(keys.len());
            for &(lk, rk) in keys {
                left_keys.push(
                    ll.iter()
                        .position(|a| *a == lk)
                        .ok_or_else(|| plan_err!("join key {lk} missing from left layout"))?,
                );
                right_keys.push(
                    rl.iter()
                        .position(|a| *a == rk)
                        .ok_or_else(|| plan_err!("join key {rk} missing from right layout"))?,
                );
            }
            let mut out_layout = ll;
            out_layout.extend(rl);
            let bound_res = residual.as_ref().map(|e| e.bind(&out_layout)).transpose()?;
            Ok(push_node(
                nodes,
                PhysKind::HashJoin {
                    left_keys,
                    right_keys,
                    residual: bound_res,
                },
                vec![l, r],
                out_layout,
            ))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let child = lower_node(input, catalog, nodes)?;
            let child_layout = nodes[child.index()].layout.clone();
            let mut group_cols = Vec::with_capacity(group_by.len());
            for g in group_by {
                group_cols.push(
                    child_layout
                        .iter()
                        .position(|a| a == g)
                        .ok_or_else(|| plan_err!("group key {g} missing from input layout"))?,
                );
            }
            let mut bound = Vec::with_capacity(aggs.len());
            let mut layout = group_by.clone();
            for a in aggs {
                bound.push(BoundAgg {
                    func: a.func,
                    input: a.input.bind(&child_layout)?,
                });
                layout.push(a.output);
            }
            Ok(push_node(
                nodes,
                PhysKind::Aggregate {
                    group_cols,
                    aggs: bound,
                },
                vec![child],
                layout,
            ))
        }
        LogicalPlan::Distinct { input } => {
            let child = lower_node(input, catalog, nodes)?;
            let layout = nodes[child.index()].layout.clone();
            Ok(push_node(nodes, PhysKind::Distinct, vec![child], layout))
        }
        LogicalPlan::SemiJoin { probe, build, keys } => {
            let p = lower_node(probe, catalog, nodes)?;
            let b = lower_node(build, catalog, nodes)?;
            let pl = nodes[p.index()].layout.clone();
            let bl = nodes[b.index()].layout.clone();
            let mut probe_keys = Vec::with_capacity(keys.len());
            let mut build_keys = Vec::with_capacity(keys.len());
            for &(pk, bk) in keys {
                probe_keys.push(
                    pl.iter()
                        .position(|a| *a == pk)
                        .ok_or_else(|| plan_err!("semijoin probe key {pk} missing"))?,
                );
                build_keys.push(
                    bl.iter()
                        .position(|a| *a == bk)
                        .ok_or_else(|| plan_err!("semijoin build key {bk} missing"))?,
                );
            }
            Ok(push_node(
                nodes,
                PhysKind::SemiJoin {
                    probe_keys,
                    build_keys,
                },
                vec![p, b],
                pl,
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_data::{generate, TpchConfig};
    use sip_plan::QueryBuilder;

    fn catalog() -> Catalog {
        generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 31,
            zipf_z: 0.0,
        })
        .unwrap()
    }

    fn sample_plan(c: &Catalog) -> PhysPlan {
        let mut q = QueryBuilder::new(c);
        let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
        let pred = p.col("p_size").unwrap().eq(Expr::lit(1i64));
        let p = q.filter(p, pred);
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let qty = ps.col("ps_availqty").unwrap();
        let agg = q
            .aggregate(ps, &["ps_partkey"], &[(AggFunc::Sum, qty, "avail")])
            .unwrap();
        let j = q.join(p, agg, &[("p.p_partkey", "ps.ps_partkey")]).unwrap();
        let out = q.project_cols(j, &["p.p_partkey", "avail"]).unwrap();
        let plan = out.into_plan();
        lower(&plan, q.into_attrs(), c).unwrap()
    }

    #[test]
    fn lowering_produces_valid_postorder() {
        let c = catalog();
        let plan = sample_plan(&c);
        plan.validate().unwrap();
        assert_eq!(plan.root.index(), plan.nodes.len() - 1);
        // Scan, Filter, Scan, Aggregate, HashJoin, Project.
        assert_eq!(plan.nodes.len(), 6);
        assert!(matches!(
            plan.node(plan.root).kind,
            PhysKind::Project { .. }
        ));
    }

    #[test]
    fn layouts_and_keys_align() {
        let c = catalog();
        let plan = sample_plan(&c);
        let join = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, PhysKind::HashJoin { .. }))
            .unwrap();
        if let PhysKind::HashJoin {
            left_keys,
            right_keys,
            ..
        } = &join.kind
        {
            assert_eq!(left_keys, &vec![0]);
            assert_eq!(right_keys, &vec![0]);
        }
        // Join output = left layout ++ right layout.
        assert_eq!(join.layout.len(), 4);
    }

    #[test]
    fn tree_navigation() {
        let c = catalog();
        let plan = sample_plan(&c);
        let join_id = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, PhysKind::HashJoin { .. }))
            .unwrap()
            .id;
        let filter_id = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, PhysKind::Filter { .. }))
            .unwrap()
            .id;
        assert_eq!(plan.parent(filter_id), Some(join_id));
        assert_eq!(plan.parent(plan.root), None);
        assert!(plan.ancestors(filter_id).contains(&plan.root));
        assert_eq!(plan.depth(plan.root), 0);
        assert!(plan.depth(filter_id) >= 1);
        // Sibling of the filter under the join is the aggregate.
        let sib = plan.join_sibling(filter_id).unwrap();
        assert!(matches!(plan.node(sib).kind, PhysKind::Aggregate { .. }));
    }

    #[test]
    fn stateful_and_attr_lookup() {
        let c = catalog();
        let plan = sample_plan(&c);
        // The aggregate and the join hold state.
        let stateful = plan.nodes.iter().filter(|n| n.kind.is_stateful());
        assert_eq!(stateful.count(), 2);
        // p_partkey appears at the part scan, filter, join, project.
        let p_partkey = plan
            .attrs
            .iter()
            .find(|i| i.name == "p.p_partkey")
            .unwrap()
            .id;
        let nodes = plan.nodes_with_attr(p_partkey);
        assert!(nodes.len() >= 3);
        assert_eq!(plan.introducer(p_partkey), Some(nodes[0]));
        // Introducer of the scan attr is the scan itself.
        assert!(matches!(
            plan.node(plan.introducer(p_partkey).unwrap()).kind,
            PhysKind::Scan { .. }
        ));
    }

    #[test]
    fn display_contains_operators() {
        let c = catalog();
        let plan = sample_plan(&c);
        let text = plan.display();
        assert!(text.contains("HashJoin"));
        assert!(text.contains("Aggregate"));
        assert!(text.contains("part as p"));
    }

    #[test]
    fn validation_rejects_bad_arity() {
        let c = catalog();
        let plan = sample_plan(&c);
        let mut nodes = plan.nodes.clone();
        // Corrupt: make the join unary.
        for n in nodes.iter_mut() {
            if matches!(n.kind, PhysKind::HashJoin { .. }) {
                n.inputs.pop();
            }
        }
        assert!(PhysPlan::from_nodes(nodes, plan.root, plan.attrs.clone()).is_err());
    }
}
