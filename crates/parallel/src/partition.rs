//! Plan analysis and expansion: serial [`PhysPlan`] → `dop`-way
//! hash-partitioned [`PhysPlan`] + [`PartitionMap`].
//!
//! Unlike the single-class expander of PR 1, every stream tracks the set of
//! attributes whose values provably obey the partition-hash invariant
//! (`hash(value) % dop == partition` for every row of partition
//! `partition`). Scans partition on their own best join key; a join whose
//! inputs are partitioned on *different* classes repartitions through a
//! [`PhysKind::ShuffleWrite`]/[`PhysKind::ShuffleRead`] mesh instead of
//! collapsing the parallel region, so multi-class join chains (TPC-H 5/9
//! shapes) stay parallel end to end.

use crate::shuffle::{plan_join_alignment, Alignment, JoinEst, KeyPair, PartitionConfig};
use sip_common::{AttrId, FxHashMap, FxHashSet, OpId};
use sip_engine::{PartitionMap, PhysKind, PhysNode, PhysPlan, ScanPartition};
use sip_expr::{AggFunc, Expr};
use sip_optimizer::Estimator;
use sip_plan::UnionFind;
use std::fmt;
use std::sync::Arc;

/// Replicable subtrees estimated at or below this many rows are broadcast
/// (one instance per partition); larger ones are instantiated once and
/// *distributed* over a `1 × dop` mesh so the underlying (possibly slow)
/// source is scanned a single time.
const BROADCAST_MAX_ROWS: f64 = 1024.0;

/// Why a plan could not be partitioned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// `dop` must be at least 2 for partitioning to mean anything.
    DopTooSmall,
    /// No attribute-equivalence class yields any partitioned scan, or the
    /// plan is parallelism-free (e.g. a single scan with no stateful work).
    NotPartitionable,
    /// The plan contains operators that cannot be cloned across partitions
    /// (already-expanded plans must not be expanded again).
    Unsupported(&'static str),
    /// The [`PartitionConfig`] holds a value expansion cannot honour.
    InvalidConfig(&'static str),
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::DopTooSmall => f.write_str("degree of parallelism must be >= 2"),
            PartitionError::NotPartitionable => {
                f.write_str("plan offers no hash-partitionable region")
            }
            PartitionError::Unsupported(what) => {
                write!(f, "plan contains unpartitionable operator: {what}")
            }
            PartitionError::InvalidConfig(why) => write!(f, "invalid partition config: {why}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// Expand `plan` into `dop` hash partitions with the default
/// [`PartitionConfig`] (shuffling enabled).
pub fn partition_plan(
    plan: &PhysPlan,
    dop: u32,
) -> Result<(Arc<PhysPlan>, Arc<PartitionMap>), PartitionError> {
    partition_plan_cfg(plan, dop, &PartitionConfig::default())
}

/// Expand `plan` into `dop` hash partitions.
///
/// On success, returns the expanded plan (partitioned scans,
/// Exchange/Merge boundaries, shuffle meshes at partitioning-class
/// changes, every partition-compatible operator cloned per partition) and
/// the [`PartitionMap`] describing clone → partition / source-operator /
/// partitioning-class relationships for AIP controllers and metrics
/// rollups.
pub fn partition_plan_cfg(
    plan: &PhysPlan,
    dop: u32,
    cfg: &PartitionConfig,
) -> Result<(Arc<PhysPlan>, Arc<PartitionMap>), PartitionError> {
    if dop < 2 {
        return Err(PartitionError::DopTooSmall);
    }
    let fanin = resolve_fanin(cfg.merge_fanin, dop)?;
    for node in &plan.nodes {
        match node.kind {
            PhysKind::Exchange { .. }
            | PhysKind::Merge
            | PhysKind::ShuffleWrite { .. }
            | PhysKind::ShuffleRead { .. } => {
                return Err(PartitionError::Unsupported("already partitioned"))
            }
            _ => {}
        }
    }
    let analysis = JoinAnalysis::compute(plan).ok_or(PartitionError::NotPartitionable)?;
    let mut ex = Expander {
        old: plan,
        dop,
        cfg,
        fanin,
        est: Estimator::estimate(plan),
        analysis,
        nodes: Vec::new(),
        partition_of: Vec::new(),
        logical_of: Vec::new(),
        op_class: Vec::new(),
        classes: Vec::new(),
        partial_aggs: FxHashMap::default(),
        next_mesh: 0,
        made_parallel: false,
    };
    let built = ex.build(plan.root);
    let root = ex.single_stream(built, plan.root);
    if !ex.made_parallel {
        return Err(PartitionError::NotPartitionable);
    }
    let map = PartitionMap {
        dop,
        partition_of: ex.partition_of,
        logical_of: ex.logical_of,
        class_attrs: ex.analysis.primary,
        op_class: ex.op_class,
        classes: ex.classes,
        partial_agg_group_cols: ex.partial_aggs,
    };
    let expanded = PhysPlan::from_nodes(ex.nodes, root, plan.attrs.clone())
        .expect("expansion produced an invalid plan");
    Ok((Arc::new(expanded), Arc::new(map)))
}

/// Union-find over the plan's join-key attribute equalities, plus the
/// per-class scores used to pick each scan's partitioning key.
struct JoinAnalysis {
    uf: UnionFind,
    /// Every attribute appearing as a join (or semijoin) key.
    key_attrs: FxHashSet<AttrId>,
    /// Per union-find root: joins co-keyed on the class count double,
    /// aggregates grouped by it count once.
    scores: FxHashMap<u32, u32>,
    /// The full top-scoring equivalence class (kept in
    /// [`PartitionMap::class_attrs`] for display and back-compat).
    primary: FxHashSet<AttrId>,
}

impl JoinAnalysis {
    fn compute(plan: &PhysPlan) -> Option<JoinAnalysis> {
        let mut uf = UnionFind::new();
        let mut key_list: Vec<AttrId> = Vec::new();
        for node in &plan.nodes {
            let (ik, jk) = match &node.kind {
                PhysKind::HashJoin {
                    left_keys,
                    right_keys,
                    ..
                } => (left_keys, right_keys),
                PhysKind::SemiJoin {
                    probe_keys,
                    build_keys,
                } => (probe_keys, build_keys),
                _ => continue,
            };
            let il = &plan.node(node.inputs[0]).layout;
            let jl = &plan.node(node.inputs[1]).layout;
            for (&a, &b) in ik.iter().zip(jk.iter()) {
                uf.union(il[a].0, jl[b].0);
                key_list.push(il[a]);
                key_list.push(jl[b]);
            }
        }
        // Score each class: joins co-keyed on it count double (both sides
        // partition), aggregates grouped by it count once. Two passes — all
        // joins, then all aggregates — because an aggregate sits *below* its
        // consuming join in arena order, so a single interleaved pass would
        // miss every aggregate bonus (the class entry would not exist yet).
        let mut scores: FxHashMap<u32, u32> = FxHashMap::default();
        for node in &plan.nodes {
            let keys = match &node.kind {
                PhysKind::HashJoin { left_keys, .. } => left_keys,
                PhysKind::SemiJoin { probe_keys, .. } => probe_keys,
                _ => continue,
            };
            let ll = &plan.node(node.inputs[0]).layout;
            for &k in keys {
                *scores.entry(uf.find(ll[k].0)).or_default() += 2;
            }
        }
        for node in &plan.nodes {
            if let PhysKind::Aggregate { group_cols, .. } = &node.kind {
                let cl = &plan.node(node.inputs[0]).layout;
                for &g in group_cols {
                    let root = uf.find(cl[g].0);
                    if scores.contains_key(&root) {
                        *scores.entry(root).or_default() += 1;
                    }
                }
            }
        }
        let (&best, _) = scores
            .iter()
            .max_by_key(|&(&root, &score)| (score, std::cmp::Reverse(root)))?;
        let primary: FxHashSet<AttrId> = key_list
            .iter()
            .copied()
            .filter(|a| uf.find(a.0) == best)
            .collect();
        Some(JoinAnalysis {
            key_attrs: key_list.into_iter().collect(),
            scores,
            primary,
            uf,
        })
    }

    /// Score of the class containing `attr` (0 for non-key attributes).
    fn score(&self, attr: AttrId) -> u32 {
        self.scores
            .get(&self.uf.find_const(attr.0))
            .copied()
            .unwrap_or(0)
    }
}

/// A partitioned stream: one clone output per partition, in partition
/// order, plus the set of attributes obeying the partition-hash invariant.
struct Stream {
    clones: Vec<OpId>,
    class: FxHashSet<AttrId>,
}

/// The result of expanding one source subtree.
enum Built {
    /// One clone output per partition.
    Parts(Stream),
    /// The subtree holds no partitioned source; it can be instantiated
    /// per partition on demand (the id is the *source-plan* subtree root).
    Replicable(OpId),
    /// A single already-materialized stream in the new plan.
    Single(OpId),
}

struct Expander<'a> {
    old: &'a PhysPlan,
    dop: u32,
    cfg: &'a PartitionConfig,
    /// Merge-tree fan-in ([`resolve_fanin`]).
    fanin: usize,
    est: Estimator,
    analysis: JoinAnalysis,
    nodes: Vec<PhysNode>,
    partition_of: Vec<Option<u32>>,
    logical_of: Vec<OpId>,
    op_class: Vec<Option<u32>>,
    classes: Vec<FxHashSet<AttrId>>,
    /// Partial-aggregate clones and their feeding Merge → group-col count.
    partial_aggs: FxHashMap<u32, usize>,
    next_mesh: u32,
    made_parallel: bool,
}

impl Expander<'_> {
    fn push(
        &mut self,
        kind: PhysKind,
        inputs: Vec<OpId>,
        layout: Vec<AttrId>,
        partition: Option<u32>,
        logical: OpId,
        class: Option<u32>,
    ) -> OpId {
        let id = OpId(self.nodes.len() as u32);
        self.nodes.push(PhysNode {
            id,
            kind,
            inputs,
            layout,
        });
        self.partition_of.push(partition);
        self.logical_of.push(logical);
        self.op_class.push(class);
        id
    }

    /// Intern a partitioning class, returning its id. Empty classes map to
    /// `None` in `op_class` space and are not interned.
    fn intern(&mut self, class: &FxHashSet<AttrId>) -> Option<u32> {
        if class.is_empty() {
            return None;
        }
        if let Some(i) = self.classes.iter().position(|c| c == class) {
            return Some(i as u32);
        }
        self.classes.push(class.clone());
        Some((self.classes.len() - 1) as u32)
    }

    fn new_mesh(&mut self) -> u32 {
        let m = self.next_mesh;
        self.next_mesh += 1;
        m
    }

    /// The partitioning key for a scan: the layout position of the
    /// join-key attribute with the highest class score (ties go to the
    /// leftmost column). `None` when no key attribute is exposed.
    fn scan_key(&self, node: &PhysNode) -> Option<usize> {
        node.layout
            .iter()
            .enumerate()
            .filter(|(_, a)| self.analysis.key_attrs.contains(a))
            .max_by_key(|&(pos, &a)| (self.analysis.score(a), std::cmp::Reverse(pos)))
            .map(|(pos, _)| pos)
    }

    /// Deep-copy a source subtree into the new arena, unchanged, attributed
    /// to `partition`.
    fn instantiate(&mut self, op: OpId, partition: Option<u32>) -> OpId {
        let node = self.old.node(op);
        let inputs: Vec<OpId> = node
            .inputs
            .iter()
            .map(|&c| self.instantiate(c, partition))
            .collect();
        self.push(
            node.kind.clone(),
            inputs,
            node.layout.clone(),
            partition,
            op,
            None,
        )
    }

    /// Materialize any [`Built`] as one stream (inserting a Merge tree
    /// above partition clones).
    fn single_stream(&mut self, built: Built, logical: OpId) -> OpId {
        match built {
            Built::Single(id) => id,
            Built::Replicable(op) => self.instantiate(op, None),
            Built::Parts(stream) => {
                let layout = self.nodes[stream.clones[0].index()].layout.clone();
                self.merge_tree(stream.clones, layout, logical, None)
            }
        }
    }

    /// Union `clones` into one stream through a tree of [`PhysKind::Merge`]
    /// operators with at most [`Expander::fanin`] inputs each,
    /// built bottom-up. An odd tail clone is passed through to the next
    /// level rather than wrapped in a useless 1-ary merge. All tree nodes
    /// belong to the serial section (`partition = None`); when the merged
    /// rows carry *partial* aggregate values, every tree node is flagged in
    /// `partial_aggs` so AIP filters never prune a value column mid-tree.
    fn merge_tree(
        &mut self,
        clones: Vec<OpId>,
        layout: Vec<AttrId>,
        logical: OpId,
        partial_agg_groups: Option<usize>,
    ) -> OpId {
        let fanin = self.fanin;
        let mut level = clones;
        while level.len() > fanin {
            let mut next = Vec::with_capacity(level.len().div_ceil(fanin));
            for group in level.chunks(fanin) {
                if group.len() == 1 {
                    next.push(group[0]);
                } else {
                    let id = self.push(
                        PhysKind::Merge,
                        group.to_vec(),
                        layout.clone(),
                        None,
                        logical,
                        None,
                    );
                    if let Some(n) = partial_agg_groups {
                        self.partial_aggs.insert(id.0, n);
                    }
                    next.push(id);
                }
            }
            level = next;
        }
        let root = self.push(PhysKind::Merge, level, layout, None, logical, None);
        if let Some(n) = partial_agg_groups {
            self.partial_aggs.insert(root.0, n);
        }
        root
    }

    /// Clone a unary source operator over each partition stream.
    fn map_clones(&mut self, op: OpId, children: Vec<OpId>, class: Option<u32>) -> Vec<OpId> {
        let node = self.old.node(op);
        let (kind, layout) = (node.kind.clone(), node.layout.clone());
        children
            .into_iter()
            .enumerate()
            .map(|(p, c)| {
                self.push(
                    kind.clone(),
                    vec![c],
                    layout.clone(),
                    Some(p as u32),
                    op,
                    class,
                )
            })
            .collect()
    }

    /// Hash-repartition a stream on layout position `col` through a
    /// `dop × dop` shuffle mesh. Writers are pushed before readers so the
    /// oracle can materialize the mesh bottom-up; reader `p` takes writer
    /// `p` as its tree input so the plan stays a tree.
    fn shuffle_stream(&mut self, stream: Stream, col: usize, logical: OpId) -> Stream {
        let mesh = self.new_mesh();
        let dop = self.dop;
        let layout = self.nodes[stream.clones[0].index()].layout.clone();
        let old_cid = self.intern(&stream.class);
        let new_class: FxHashSet<AttrId> = std::iter::once(layout[col]).collect();
        let new_cid = self.intern(&new_class);
        let writers: Vec<OpId> = stream
            .clones
            .into_iter()
            .enumerate()
            .map(|(p, c)| {
                self.push(
                    PhysKind::ShuffleWrite {
                        mesh,
                        col,
                        writer: p as u32,
                        dop,
                    },
                    vec![c],
                    layout.clone(),
                    Some(p as u32),
                    logical,
                    old_cid,
                )
            })
            .collect();
        let clones = (0..dop)
            .map(|p| {
                self.push(
                    PhysKind::ShuffleRead {
                        mesh,
                        partition: p,
                        writers: dop,
                        dop,
                    },
                    vec![writers[p as usize]],
                    layout.clone(),
                    Some(p),
                    logical,
                    new_cid,
                )
            })
            .collect();
        Stream {
            clones,
            class: new_class,
        }
    }

    /// Instantiate a replicable subtree once (serially) and deal its rows
    /// into `dop` partitions on layout position `col` over a `1 × dop`
    /// mesh — the underlying (possibly slow) source is scanned a single
    /// time, unlike a broadcast which clones the whole subtree per
    /// partition.
    fn distribute(&mut self, replica_op: OpId, col: usize) -> Stream {
        let mesh = self.new_mesh();
        let dop = self.dop;
        let layout = self.old.node(replica_op).layout.clone();
        let instance = self.instantiate(replica_op, None);
        let writer = self.push(
            PhysKind::ShuffleWrite {
                mesh,
                col,
                writer: 0,
                dop,
            },
            vec![instance],
            layout.clone(),
            None,
            replica_op,
            None,
        );
        let new_class: FxHashSet<AttrId> = std::iter::once(layout[col]).collect();
        let new_cid = self.intern(&new_class);
        let clones = (0..dop)
            .map(|p| {
                let inputs = if p == 0 { vec![writer] } else { vec![] };
                self.push(
                    PhysKind::ShuffleRead {
                        mesh,
                        partition: p,
                        writers: 1,
                        dop,
                    },
                    inputs,
                    layout.clone(),
                    Some(p),
                    replica_op,
                    new_cid,
                )
            })
            .collect();
        Stream {
            clones,
            class: new_class,
        }
    }

    /// The partitioning class of a co-located join's output: surviving
    /// class attributes of both inputs, plus both attributes of every key
    /// pair anchored in an input class (equal values share a hash). For a
    /// semijoin only probe-layout attributes survive.
    fn join_out_class(
        &self,
        op: OpId,
        l_class: &FxHashSet<AttrId>,
        r_class: &FxHashSet<AttrId>,
        pairs: &[KeyPair],
        is_semi: bool,
    ) -> FxHashSet<AttrId> {
        let mut out: FxHashSet<AttrId> = if is_semi {
            l_class.clone()
        } else {
            l_class.union(r_class).copied().collect()
        };
        for p in pairs {
            if l_class.contains(&p.l_attr) || r_class.contains(&p.r_attr) {
                out.insert(p.l_attr);
                if !is_semi {
                    out.insert(p.r_attr);
                }
            }
        }
        let layout = &self.old.node(op).layout;
        out.retain(|a| layout.contains(a));
        out
    }

    /// Emit per-partition clones of a binary operator over two co-located
    /// streams (in original input order).
    fn emit_colocated(
        &mut self,
        op: OpId,
        ls: Stream,
        rs: Stream,
        pairs: &[KeyPair],
        is_semi: bool,
    ) -> Built {
        let node = self.old.node(op);
        let (kind, layout) = (node.kind.clone(), node.layout.clone());
        let class = self.join_out_class(op, &ls.class, &rs.class, pairs, is_semi);
        let cid = self.intern(&class);
        let clones = ls
            .clones
            .into_iter()
            .zip(rs.clones)
            .enumerate()
            .map(|(p, (lc, rc))| {
                self.push(
                    kind.clone(),
                    vec![lc, rc],
                    layout.clone(),
                    Some(p as u32),
                    op,
                    cid,
                )
            })
            .collect();
        Built::Parts(Stream { clones, class })
    }

    /// Merge both sides and run the operator serially (the pre-shuffle
    /// fallback, still taken when the cost model rejects repartitioning).
    fn serial_binary(&mut self, op: OpId, l_old: OpId, r_old: OpId, l: Built, r: Built) -> Built {
        let lm = self.single_stream(l, l_old);
        let rm = self.single_stream(r, r_old);
        let node = self.old.node(op);
        let (kind, layout) = (node.kind.clone(), node.layout.clone());
        Built::Single(self.push(kind, vec![lm, rm], layout, None, op, None))
    }

    /// Expand one source subtree.
    fn build(&mut self, op: OpId) -> Built {
        let node = self.old.node(op);
        match &node.kind {
            PhysKind::Scan { .. } => match self.scan_key(node) {
                Some(col) => {
                    self.made_parallel = true;
                    let class: FxHashSet<AttrId> = std::iter::once(node.layout[col]).collect();
                    let cid = self.intern(&class);
                    let (kind0, layout) = (node.kind.clone(), node.layout.clone());
                    let clones = (0..self.dop)
                        .map(|p| {
                            let mut kind = kind0.clone();
                            if let PhysKind::Scan { part, .. } = &mut kind {
                                *part = Some(ScanPartition {
                                    col,
                                    partition: p,
                                    dop: self.dop,
                                });
                            }
                            self.push(kind, vec![], layout.clone(), Some(p), op, cid)
                        })
                        .collect();
                    Built::Parts(Stream { clones, class })
                }
                None => Built::Replicable(op),
            },
            PhysKind::Filter { .. } | PhysKind::Project { .. } => {
                let out_layout = node.layout.clone();
                match self.build(node.inputs[0]) {
                    Built::Parts(s) => {
                        // A projection keeps only the class attributes it
                        // re-exposes; a filter keeps them all.
                        let mut class = s.class;
                        class.retain(|a| out_layout.contains(a));
                        let cid = self.intern(&class);
                        let clones = self.map_clones(op, s.clones, cid);
                        Built::Parts(Stream { clones, class })
                    }
                    Built::Replicable(_) => Built::Replicable(op),
                    Built::Single(c) => {
                        let kind = self.old.node(op).kind.clone();
                        Built::Single(self.push(kind, vec![c], out_layout, None, op, None))
                    }
                }
            }
            PhysKind::HashJoin { .. } | PhysKind::SemiJoin { .. } => self.build_binary(op),
            PhysKind::Aggregate { group_cols, aggs } => {
                let child_layout = self.old.node(node.inputs[0]).layout.clone();
                let group_cols = group_cols.clone();
                let merge_funcs: Option<Vec<AggFunc>> =
                    aggs.iter().map(|a| merge_func(a.func)).collect();
                let n_groups = group_cols.len();
                let (kind, out_layout) = (node.kind.clone(), node.layout.clone());
                match self.build(node.inputs[0]) {
                    Built::Parts(mut s) => {
                        let mut grouped_by_class = group_cols
                            .iter()
                            .any(|&g| s.class.contains(&child_layout[g]));
                        if !grouped_by_class && self.cfg.shuffle {
                            // The group key is off the stream's class, but
                            // when it is a join-key attribute the aggregate
                            // output feeds further keyed work: repartition
                            // the input onto the group key so per-partition
                            // groups stay complete and final — the region
                            // (and everything joining on this key above)
                            // stays parallel instead of funnelling through
                            // a serial merge aggregate.
                            let in_rows = self.est.node(node.inputs[0]).rows;
                            let out_rows = self.est.node(op).rows;
                            let best = group_cols
                                .iter()
                                .map(|&g| (g, child_layout[g]))
                                .filter(|&(_, a)| self.analysis.key_attrs.contains(&a))
                                .max_by_key(|&(g, a)| {
                                    (self.analysis.score(a), std::cmp::Reverse(g))
                                });
                            if let Some((g, _)) = best {
                                if self
                                    .cfg
                                    .cost
                                    .repartition_wins(in_rows, 0.0, out_rows, in_rows, self.dop)
                                {
                                    s = self.shuffle_stream(s, g, node.inputs[0]);
                                    grouped_by_class = true;
                                }
                            }
                        }
                        if grouped_by_class {
                            // Equal group keys share a partition: each
                            // partition's groups are complete and final.
                            let mut class = s.class;
                            class.retain(|a| out_layout.contains(a));
                            let cid = self.intern(&class);
                            let clones = self.map_clones(op, s.clones, cid);
                            Built::Parts(Stream { clones, class })
                        } else if let Some(funcs) = merge_funcs {
                            // Partial aggregate per partition, merged, then
                            // a final aggregate combining partial states.
                            // The partials (and the merge) expose the
                            // aggregate attrs with *partial* values; flag
                            // them so AIP controllers never prune on a
                            // value column here.
                            let partials = self.map_clones(op, s.clones, None);
                            for &pc in &partials {
                                self.partial_aggs.insert(pc.0, n_groups);
                            }
                            let merged =
                                self.merge_tree(partials, out_layout.clone(), op, Some(n_groups));
                            let final_aggs = out_layout
                                .iter()
                                .skip(n_groups)
                                .zip(funcs)
                                .enumerate()
                                .map(|(i, (_, func))| sip_engine::BoundAgg {
                                    func,
                                    input: Expr::Col(n_groups + i),
                                })
                                .collect();
                            Built::Single(self.push(
                                PhysKind::Aggregate {
                                    group_cols: (0..n_groups).collect(),
                                    aggs: final_aggs,
                                },
                                vec![merged],
                                out_layout,
                                None,
                                op,
                                None,
                            ))
                        } else {
                            // Unmergeable aggregate (e.g. AVG): aggregate
                            // serially above the merge.
                            let merged_in = self.single_stream(Built::Parts(s), op);
                            Built::Single(self.push(
                                kind,
                                vec![merged_in],
                                out_layout,
                                None,
                                op,
                                None,
                            ))
                        }
                    }
                    Built::Replicable(_) => Built::Replicable(op),
                    Built::Single(c) => {
                        Built::Single(self.push(kind, vec![c], out_layout, None, op, None))
                    }
                }
            }
            PhysKind::Distinct => {
                let out_layout = node.layout.clone();
                match self.build(node.inputs[0]) {
                    Built::Parts(mut s) => {
                        if s.class.is_empty() && self.cfg.shuffle && !out_layout.is_empty() {
                            // Duplicates agree on every column, so hashing
                            // *any* column co-locates them; prefer a
                            // join-key attribute (highest class score) so
                            // downstream joins stay aligned too.
                            let in_rows = self.est.node(node.inputs[0]).rows;
                            let out_rows = self.est.node(op).rows;
                            if self
                                .cfg
                                .cost
                                .repartition_wins(in_rows, 0.0, out_rows, in_rows, self.dop)
                            {
                                let col = (0..out_layout.len())
                                    .max_by_key(|&i| {
                                        (self.analysis.score(out_layout[i]), std::cmp::Reverse(i))
                                    })
                                    .unwrap();
                                s = self.shuffle_stream(s, col, node.inputs[0]);
                            }
                        }
                        if !s.class.is_empty() {
                            // Rows equal on every column agree on the class
                            // attribute, so duplicates share a partition.
                            let cid = self.intern(&s.class);
                            let clones = self.map_clones(op, s.clones, cid);
                            Built::Parts(Stream {
                                clones,
                                class: s.class,
                            })
                        } else {
                            // Partial dedup per partition shrinks the merge;
                            // the serial distinct finishes the job.
                            let partials = self.map_clones(op, s.clones, None);
                            let merged = self.merge_tree(partials, out_layout.clone(), op, None);
                            Built::Single(self.push(
                                PhysKind::Distinct,
                                vec![merged],
                                out_layout,
                                None,
                                op,
                                None,
                            ))
                        }
                    }
                    Built::Replicable(_) => Built::Replicable(op),
                    Built::Single(c) => Built::Single(self.push(
                        PhysKind::Distinct,
                        vec![c],
                        out_layout,
                        None,
                        op,
                        None,
                    )),
                }
            }
            PhysKind::Exchange { .. }
            | PhysKind::Merge
            | PhysKind::ShuffleWrite { .. }
            | PhysKind::ShuffleRead { .. } => {
                unreachable!("rejected before expansion")
            }
        }
    }

    /// Expand a join/semijoin over its two built inputs.
    fn build_binary(&mut self, op: OpId) -> Built {
        let node = self.old.node(op);
        let is_semi = matches!(node.kind, PhysKind::SemiJoin { .. });
        let (lk, rk) = match &node.kind {
            PhysKind::HashJoin {
                left_keys,
                right_keys,
                ..
            } => (left_keys, right_keys),
            PhysKind::SemiJoin {
                probe_keys,
                build_keys,
            } => (probe_keys, build_keys),
            _ => unreachable!(),
        };
        let (l_old, r_old) = (node.inputs[0], node.inputs[1]);
        let ll = &self.old.node(l_old).layout;
        let rl = &self.old.node(r_old).layout;
        let pairs: Vec<KeyPair> = lk
            .iter()
            .zip(rk.iter())
            .map(|(&lp, &rp)| KeyPair {
                l_pos: lp,
                r_pos: rp,
                l_attr: ll[lp],
                r_attr: rl[rp],
            })
            .collect();
        let (l, r) = (self.build(l_old), self.build(r_old));
        match (l, r) {
            (Built::Parts(ls), Built::Parts(rs)) => {
                self.join_parts(op, l_old, r_old, ls, rs, &pairs, is_semi)
            }
            (Built::Parts(s), Built::Replicable(rep)) => {
                self.join_stream_replica(op, l_old, r_old, s, rep, &pairs, is_semi, false)
            }
            (Built::Replicable(rep), Built::Parts(s)) => {
                self.join_stream_replica(op, l_old, r_old, s, rep, &pairs, is_semi, true)
            }
            (Built::Replicable(_), Built::Replicable(_)) => Built::Replicable(op),
            (l, r) => self.serial_binary(op, l_old, r_old, l, r),
        }
    }

    /// The base-table hot fraction of `attr` (share of the most frequent
    /// value in the scan column that introduces it; 0 when `attr` is not a
    /// base column).
    fn base_hot_fraction(&self, attr: AttrId) -> f64 {
        for node in &self.old.nodes {
            if let PhysKind::Scan { table, cols, .. } = &node.kind {
                if let Some(pos) = node.layout.iter().position(|a| *a == attr) {
                    return table.hot_fraction(cols[pos]);
                }
            }
        }
        0.0
    }

    /// Max base-table hot fraction over a join's key attributes — the skew
    /// a hash repartition of either side cannot split.
    fn pairs_hot_frac(&self, pairs: &[KeyPair]) -> f64 {
        pairs
            .iter()
            .flat_map(|p| [p.l_attr, p.r_attr])
            .map(|a| self.base_hot_fraction(a))
            .fold(0.0, f64::max)
    }

    /// Both inputs partitioned: co-locate them, shuffling one or both
    /// sides when their classes do not align on any key pair.
    #[allow(clippy::too_many_arguments)]
    fn join_parts(
        &mut self,
        op: OpId,
        l_old: OpId,
        r_old: OpId,
        mut ls: Stream,
        mut rs: Stream,
        pairs: &[KeyPair],
        is_semi: bool,
    ) -> Built {
        let est = JoinEst {
            left: self.est.node(l_old).rows,
            right: self.est.node(r_old).rows,
            out: self.est.node(op).rows,
            hot_frac: self.pairs_hot_frac(pairs),
        };
        let alignment = plan_join_alignment(pairs, &ls.class, &rs.class, est, self.dop, self.cfg);
        match alignment {
            Alignment::Serial => {
                self.serial_binary(op, l_old, r_old, Built::Parts(ls), Built::Parts(rs))
            }
            Alignment::Colocated { .. } => self.emit_colocated(op, ls, rs, pairs, is_semi),
            Alignment::ShuffleRight { pair } => {
                rs = self.shuffle_stream(rs, pairs[pair].r_pos, r_old);
                self.emit_colocated(op, ls, rs, pairs, is_semi)
            }
            Alignment::ShuffleLeft { pair } => {
                ls = self.shuffle_stream(ls, pairs[pair].l_pos, l_old);
                self.emit_colocated(op, ls, rs, pairs, is_semi)
            }
            Alignment::ShuffleBoth { pair } => {
                ls = self.shuffle_stream(ls, pairs[pair].l_pos, l_old);
                rs = self.shuffle_stream(rs, pairs[pair].r_pos, r_old);
                self.emit_colocated(op, ls, rs, pairs, is_semi)
            }
        }
    }

    /// One input partitioned, the other replicable. Small replicas are
    /// broadcast (instantiated per partition, hash-pruned by an
    /// [`PhysKind::Exchange`] when a key pair aligns with the stream's
    /// class — the Exchange *must* hash the aligned pair's key column, not
    /// merely any class attribute, or rows whose key and class columns
    /// hash apart are silently dropped); large replicas are instantiated
    /// once and distributed over a `1 × dop` mesh. A semijoin with a
    /// replicated probe additionally *requires* alignment (an unpruned
    /// probe replica would emit one copy of each matching probe row per
    /// partition), so when the build stream is off-class it is shuffled
    /// onto the probe key instead of ending the parallel region.
    #[allow(clippy::too_many_arguments)]
    fn join_stream_replica(
        &mut self,
        op: OpId,
        l_old: OpId,
        r_old: OpId,
        s: Stream,
        rep: OpId,
        pairs: &[KeyPair],
        is_semi: bool,
        replica_is_left: bool,
    ) -> Built {
        let stream_attr = |p: &KeyPair| if replica_is_left { p.r_attr } else { p.l_attr };
        let stream_pos = |p: &KeyPair| if replica_is_left { p.r_pos } else { p.l_pos };
        let rep_pos = |p: &KeyPair| if replica_is_left { p.l_pos } else { p.r_pos };
        let (s_old, rep_old) = if replica_is_left {
            (r_old, l_old)
        } else {
            (l_old, r_old)
        };
        let aligned = pairs.iter().position(|p| s.class.contains(&stream_attr(p)));
        let rep_rows = self.est.node(rep).rows;
        let s_rows = self.est.node(s_old).rows;
        let out_rows = self.est.node(op).rows;
        let big = rep_rows > BROADCAST_MAX_ROWS;
        let semi_probe_replica = is_semi && replica_is_left;
        let (l_rows, r_rows) = if replica_is_left {
            (rep_rows, s_rows)
        } else {
            (s_rows, rep_rows)
        };
        let skew = self
            .cfg
            .cost
            .skew_factor(self.pairs_hot_frac(pairs), self.dop);
        let wins = |e: &Self, moved: f64| {
            e.cfg
                .cost
                .repartition_wins_skewed(l_rows, r_rows, out_rows, moved, e.dop, skew)
        };

        let emit = |e: &mut Self, s: Stream, reps: Stream| {
            if replica_is_left {
                e.emit_colocated(op, reps, s, pairs, is_semi)
            } else {
                e.emit_colocated(op, s, reps, pairs, is_semi)
            }
        };

        if let Some(i) = aligned {
            if big && self.cfg.shuffle {
                let reps = self.distribute(rep, rep_pos(&pairs[i]));
                return emit(self, s, reps);
            }
            return self.broadcast_replica(
                op,
                s,
                rep,
                Some(rep_pos(&pairs[i])),
                pairs,
                is_semi,
                replica_is_left,
            );
        }
        // Stream not aligned on any pair.
        if semi_probe_replica {
            if self.cfg.shuffle && !pairs.is_empty() && wins(self, s_rows) {
                let s = self.shuffle_stream(s, stream_pos(&pairs[0]), s_old);
                if big {
                    let reps = self.distribute(rep, rep_pos(&pairs[0]));
                    return emit(self, s, reps);
                }
                return self.broadcast_replica(
                    op,
                    s,
                    rep,
                    Some(rep_pos(&pairs[0])),
                    pairs,
                    is_semi,
                    replica_is_left,
                );
            }
            // A probe row matching build rows in several partitions would
            // be emitted once per partition; without a shuffle the only
            // safe plan is serial.
            let rep_built = Built::Replicable(rep);
            let (l, r) = (rep_built, Built::Parts(s));
            return self.serial_binary(op, rep_old, s_old, l, r);
        }
        if big && self.cfg.shuffle && !pairs.is_empty() && wins(self, s_rows + rep_rows) {
            let s = self.shuffle_stream(s, stream_pos(&pairs[0]), s_old);
            let reps = self.distribute(rep, rep_pos(&pairs[0]));
            return emit(self, s, reps);
        }
        // Full broadcast: each partition keeps a complete replica (correct
        // because each partitioned-side row lives in exactly one partition).
        self.broadcast_replica(op, s, rep, None, pairs, is_semi, replica_is_left)
    }

    /// Join partition streams against per-partition instantiations of a
    /// replicable subtree, optionally pruning each instance to its
    /// partition's hash class with an Exchange on `exchange_pos` (a
    /// replica-layout key position aligned with the stream's class).
    #[allow(clippy::too_many_arguments)]
    fn broadcast_replica(
        &mut self,
        op: OpId,
        stream: Stream,
        replica_op: OpId,
        exchange_pos: Option<usize>,
        pairs: &[KeyPair],
        is_semi: bool,
        replica_is_left: bool,
    ) -> Built {
        let node = self.old.node(op);
        let (kind, layout) = (node.kind.clone(), node.layout.clone());
        let replica_layout = self.old.node(replica_op).layout.clone();
        let rep_class: FxHashSet<AttrId> = exchange_pos
            .map(|pos| std::iter::once(replica_layout[pos]).collect())
            .unwrap_or_default();
        let class = if replica_is_left {
            self.join_out_class(op, &rep_class, &stream.class, pairs, is_semi)
        } else {
            self.join_out_class(op, &stream.class, &rep_class, pairs, is_semi)
        };
        let cid = self.intern(&class);
        let ex_cid = self.intern(&rep_class);
        let clones = stream
            .clones
            .into_iter()
            .enumerate()
            .map(|(p, sc)| {
                let p32 = p as u32;
                let mut replica = self.instantiate(replica_op, Some(p32));
                if let Some(col) = exchange_pos {
                    replica = self.push(
                        PhysKind::Exchange {
                            col,
                            partition: p32,
                            dop: self.dop,
                        },
                        vec![replica],
                        replica_layout.clone(),
                        Some(p32),
                        replica_op,
                        ex_cid,
                    );
                }
                let inputs = if replica_is_left {
                    vec![replica, sc]
                } else {
                    vec![sc, replica]
                };
                self.push(kind.clone(), inputs, layout.clone(), Some(p32), op, cid)
            })
            .collect();
        Built::Parts(Stream { clones, class })
    }
}

/// The effective merge fan-in: an explicit `PartitionConfig::merge_fanin`
/// of at least 2 wins; auto (`0`) keeps the flat single merge up to dop 4
/// and switches to a binary tree above, where one merge thread's per-batch
/// work (select across `dop` channels, counters, emit) becomes the serial
/// bottleneck of large outputs. A fan-in of 1 is rejected.
fn resolve_fanin(fanin: u32, dop: u32) -> Result<usize, PartitionError> {
    match fanin {
        0 if dop > 4 => Ok(2),
        0 => Ok(usize::MAX),
        1 => Err(PartitionError::InvalidConfig(
            "merge_fanin must be 0 (auto) or at least 2 (a 1-ary merge tree cannot terminate)",
        )),
        f => Ok(f as usize),
    }
}

/// How a partial aggregate's outputs combine in the final merge aggregate;
/// `None` = the function cannot be split (serial fallback).
fn merge_func(f: AggFunc) -> Option<AggFunc> {
    match f {
        AggFunc::Sum => Some(AggFunc::Sum),
        AggFunc::Count => Some(AggFunc::Sum),
        AggFunc::Min => Some(AggFunc::Min),
        AggFunc::Max => Some(AggFunc::Max),
        AggFunc::Avg => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_common::{DataType, Field, Row, Schema, Value};
    use sip_data::{generate, Catalog, Table, TpchConfig};
    use sip_engine::{canonical, execute_oracle, lower};
    use sip_plan::QueryBuilder;

    fn catalog() -> Catalog {
        generate(&TpchConfig {
            scale_factor: 0.004,
            seed: 11,
            zipf_z: 0.5,
        })
        .unwrap()
    }

    /// part ⋈ (sum availqty per partkey): joins and groups on one class.
    fn partkey_plan(c: &Catalog) -> PhysPlan {
        let mut q = QueryBuilder::new(c);
        let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let qty = ps.col("ps_availqty").unwrap();
        let agg = q
            .aggregate(ps, &["ps_partkey"], &[(AggFunc::Sum, qty, "avail")])
            .unwrap();
        let j = q.join(p, agg, &[("p.p_partkey", "ps.ps_partkey")]).unwrap();
        let plan = j.into_plan();
        lower(&plan, q.into_attrs(), c).unwrap()
    }

    #[test]
    fn expansion_matches_oracle_and_maps_partitions() {
        let c = catalog();
        let plan = partkey_plan(&c);
        let expected = canonical(&execute_oracle(&plan).unwrap());
        for dop in [2u32, 3, 4] {
            let (expanded, map) = partition_plan(&plan, dop).unwrap();
            expanded.validate().unwrap();
            assert_eq!(map.dop, dop);
            assert_eq!(map.partition_of.len(), expanded.nodes.len());
            assert_eq!(map.op_class.len(), expanded.nodes.len());
            // The expanded plan computes the same multiset.
            let got = canonical(&execute_oracle(&expanded).unwrap());
            assert_eq!(got, expected, "dop {dop} diverged");
            // Every partition owns at least one operator; a merge exists.
            for p in 0..dop {
                assert!(map.partition_of.contains(&Some(p)), "partition {p} empty");
            }
            assert!(expanded
                .nodes
                .iter()
                .any(|n| matches!(n.kind, PhysKind::Merge)));
            // Scans are partition-pruned.
            let parts: Vec<_> = expanded
                .nodes
                .iter()
                .filter_map(|n| match &n.kind {
                    PhysKind::Scan { part: Some(p), .. } => Some(p.partition),
                    _ => None,
                })
                .collect();
            assert_eq!(parts.len(), 2 * dop as usize, "both scans split");
            // Partitioned operators report a partitioning class holding
            // the attribute their rows are hashed on.
            for n in &expanded.nodes {
                if let PhysKind::Scan { part: Some(p), .. } = &n.kind {
                    let cid = map.op_class[n.id.index()].expect("partitioned scan has class");
                    assert!(map.classes[cid as usize].contains(&n.layout[p.col]));
                }
            }
        }
    }

    #[test]
    fn global_aggregate_splits_into_partial_and_final() {
        let c = catalog();
        let mut q = QueryBuilder::new(&c);
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let qty = ps.col("ps_availqty").unwrap();
        let per_key = q
            .aggregate(ps, &["ps_partkey"], &[(AggFunc::Sum, qty, "avail")])
            .unwrap();
        let p = q.scan("part", "p", &["p_partkey"]).unwrap();
        let j = q
            .join(p, per_key, &[("p.p_partkey", "ps.ps_partkey")])
            .unwrap();
        let avail = j.col("avail").unwrap();
        let total = q
            .aggregate(j, &[], &[(AggFunc::Sum, avail, "total")])
            .unwrap();
        let plan = total.into_plan();
        let phys = lower(&plan, q.into_attrs(), &c).unwrap();

        let expected = canonical(&execute_oracle(&phys).unwrap());
        let (expanded, _map) = partition_plan(&phys, 4).unwrap();
        // The global SUM has no class column: partial aggregates per
        // partition + a final merge aggregate above the Merge.
        let aggs = expanded
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, PhysKind::Aggregate { .. }))
            .count();
        // 4 per-key (partitioned) + 4 partial SUM + 1 final SUM.
        assert_eq!(aggs, 9, "{}", expanded.display());
        assert_eq!(canonical(&execute_oracle(&expanded).unwrap()), expected);
    }

    #[test]
    fn merge_tail_becomes_a_tree_above_dop_4_and_on_request() {
        let c = catalog();
        let plan = partkey_plan(&c);
        let expected = canonical(&execute_oracle(&plan).unwrap());
        let merges = |p: &PhysPlan| {
            p.nodes
                .iter()
                .filter(|n| matches!(n.kind, PhysKind::Merge))
                .count()
        };
        // Auto: flat single merge at dop 4.
        let (flat, _) = partition_plan(&plan, 4).unwrap();
        assert_eq!(merges(&flat), 1, "{}", flat.display());
        // Auto: binary tree at dop 8 (8 → 4 → 2 → 1 = 7 merges).
        let (tree8, map8) = partition_plan(&plan, 8).unwrap();
        tree8.validate().unwrap();
        assert_eq!(merges(&tree8), 7, "{}", tree8.display());
        // Every tree merge is serial-section and binary.
        for n in &tree8.nodes {
            if matches!(n.kind, PhysKind::Merge) {
                assert!(map8.partition(n.id).is_none());
                assert!(n.inputs.len() <= 2, "{}", tree8.display());
            }
        }
        assert_eq!(canonical(&execute_oracle(&tree8).unwrap()), expected);
        // Forced fan-in reshapes the tail at any dop.
        for (dop, fanin, want) in [(4u32, 2u32, 3usize), (8, 4, 3), (8, 3, 4)] {
            let cfg = PartitionConfig {
                merge_fanin: fanin,
                ..Default::default()
            };
            let (expanded, _) = partition_plan_cfg(&plan, dop, &cfg).unwrap();
            expanded.validate().unwrap();
            assert_eq!(
                merges(&expanded),
                want,
                "dop {dop} fanin {fanin}\n{}",
                expanded.display()
            );
            assert_eq!(
                canonical(&execute_oracle(&expanded).unwrap()),
                expected,
                "dop {dop} fanin {fanin} diverged"
            );
        }
    }

    #[test]
    fn merge_fanin_one_is_rejected() {
        let c = catalog();
        let plan = partkey_plan(&c);
        let with = |merge_fanin: u32| PartitionConfig {
            merge_fanin,
            ..Default::default()
        };
        for fanin in [0u32, 2, 8] {
            assert!(
                partition_plan_cfg(&plan, 4, &with(fanin)).is_ok(),
                "fanin {fanin}"
            );
        }
        assert!(matches!(
            partition_plan_cfg(&plan, 4, &with(1)),
            Err(PartitionError::InvalidConfig(_))
        ));
        // The executor reports it as a configuration error instead of
        // silently falling back to a serial run.
        let err = crate::PartitionedExec::with_config(4, with(1))
            .execute(
                Arc::new(plan),
                Arc::new(sip_engine::NoopMonitor),
                sip_engine::ExecOptions::default(),
            )
            .unwrap_err();
        assert_eq!(err.layer(), "config");
    }

    #[test]
    fn partial_aggregate_merge_tree_is_flagged_unfilterable() {
        // Global SUM at dop 8: partial aggregates per partition, a binary
        // merge tree, then the final merge aggregate. Every tree node
        // carries partial accumulator values, so AIP must not filter any
        // of its columns (n_groups = 0 here).
        let c = catalog();
        let mut q = QueryBuilder::new(&c);
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let p = q.scan("part", "p", &["p_partkey"]).unwrap();
        let j = q.join(p, ps, &[("p.p_partkey", "ps.ps_partkey")]).unwrap();
        let qty = j.col("ps_availqty").unwrap();
        let total = q
            .aggregate(j, &[], &[(AggFunc::Sum, qty, "total")])
            .unwrap();
        let plan = total.into_plan();
        let phys = lower(&plan, q.into_attrs(), &c).unwrap();
        let expected = canonical(&execute_oracle(&phys).unwrap());
        let (expanded, map) = partition_plan(&phys, 8).unwrap();
        let mut tree_merges = 0;
        for n in &expanded.nodes {
            if matches!(n.kind, PhysKind::Merge) {
                tree_merges += 1;
                assert!(
                    !map.filterable_at(n.id, 0),
                    "partial-value column filterable at tree merge {}\n{}",
                    n.id,
                    expanded.display()
                );
            }
        }
        assert_eq!(tree_merges, 7, "{}", expanded.display());
        assert_eq!(canonical(&execute_oracle(&expanded).unwrap()), expected);
    }

    #[test]
    fn single_scan_plan_is_not_partitionable() {
        let c = catalog();
        let mut q = QueryBuilder::new(&c);
        let p = q.scan("part", "p", &["p_partkey"]).unwrap();
        let plan = p.into_plan();
        let phys = lower(&plan, q.into_attrs(), &c).unwrap();
        assert_eq!(
            partition_plan(&phys, 4).unwrap_err(),
            PartitionError::NotPartitionable
        );
        assert_eq!(
            partition_plan(&phys, 1).unwrap_err(),
            PartitionError::DopTooSmall
        );
    }

    #[test]
    fn co_keyed_sides_partition_without_exchange_or_shuffle() {
        let c = catalog();
        let mut q = QueryBuilder::new(&c);
        let ps1 = q
            .scan("partsupp", "ps1", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let ps2 = q.scan("partsupp", "ps2", &["ps_partkey"]).unwrap();
        let j = q
            .join(ps1, ps2, &[("ps1.ps_partkey", "ps2.ps_partkey")])
            .unwrap();
        let plan = j.into_plan();
        let phys = lower(&plan, q.into_attrs(), &c).unwrap();
        let (expanded, map) = partition_plan(&phys, 2).unwrap();
        // Both sides carry partkey → both scans partitioned; no Exchange,
        // no shuffle mesh.
        assert!(expanded.nodes.iter().all(|n| !matches!(
            n.kind,
            PhysKind::Exchange { .. }
                | PhysKind::ShuffleWrite { .. }
                | PhysKind::ShuffleRead { .. }
        )));
        let expected = canonical(&execute_oracle(&phys).unwrap());
        assert_eq!(canonical(&execute_oracle(&expanded).unwrap()), expected);
        assert!(map.class_attrs.len() >= 2);
    }

    #[test]
    fn off_class_semijoin_build_is_shuffled_not_serialized() {
        // Partition classes: the probe (supplier) partitions on suppkey,
        // the build chain on partkey. The semijoin probes on *suppkey*,
        // off the build's class: PR 1 ended the parallel region here; the
        // shuffle now repartitions the build side onto suppkey and runs
        // one semijoin clone per partition.
        let c = catalog();
        let mut q = QueryBuilder::new(&c);
        let s = q.scan("supplier", "s", &["s_suppkey"]).unwrap();
        let ps1 = q
            .scan("partsupp", "ps1", &["ps_partkey", "ps_suppkey"])
            .unwrap();
        let ps2 = q
            .scan("partsupp", "ps2", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let qty = ps2.col("ps_availqty").unwrap();
        let agg = q
            .aggregate(ps2, &["ps_partkey"], &[(AggFunc::Sum, qty, "avail")])
            .unwrap();
        let j = q
            .join(ps1, agg, &[("ps1.ps_partkey", "ps2.ps_partkey")])
            .unwrap();
        let keys = vec![(
            s.attr("s_suppkey").unwrap(),
            j.attr("ps1.ps_suppkey").unwrap(),
        )];
        let plan = sip_plan::LogicalPlan::SemiJoin {
            probe: Box::new(s.into_plan()),
            build: Box::new(j.into_plan()),
            keys,
        };
        let phys = lower(&plan, q.into_attrs(), &c).unwrap();

        let expected = canonical(&execute_oracle(&phys).unwrap());
        for dop in [2u32, 4] {
            let (expanded, _) = partition_plan(&phys, dop).unwrap();
            assert_eq!(
                canonical(&execute_oracle(&expanded).unwrap()),
                expected,
                "dop {dop}: shuffled semijoin diverged\n{}",
                expanded.display()
            );
            // One semijoin clone per partition, fed through a shuffle.
            let semis = expanded
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, PhysKind::SemiJoin { .. }))
                .count();
            assert_eq!(semis, dop as usize, "{}", expanded.display());
            let writers = expanded
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, PhysKind::ShuffleWrite { .. }))
                .count();
            assert!(writers >= dop as usize, "{}", expanded.display());
        }
        // With shuffling disabled the PR-1 serial fallback returns.
        let cfg = PartitionConfig {
            shuffle: false,
            ..Default::default()
        };
        let (expanded, _) = partition_plan_cfg(&phys, 2, &cfg).unwrap();
        let semis = expanded
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, PhysKind::SemiJoin { .. }))
            .count();
        assert_eq!(semis, 1, "{}", expanded.display());
        assert_eq!(canonical(&execute_oracle(&expanded).unwrap()), expected);
    }

    #[test]
    fn avg_aggregate_falls_back_to_serial_merge() {
        let c = catalog();
        let mut q = QueryBuilder::new(&c);
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let p = q.scan("part", "p", &["p_partkey"]).unwrap();
        let j = q.join(p, ps, &[("p.p_partkey", "ps.ps_partkey")]).unwrap();
        let qty = j.col("ps_availqty").unwrap();
        // Global AVG: not splittable into partials.
        let avg = q.aggregate(j, &[], &[(AggFunc::Avg, qty, "mean")]).unwrap();
        let plan = avg.into_plan();
        let phys = lower(&plan, q.into_attrs(), &c).unwrap();
        let (expanded, _) = partition_plan(&phys, 3).unwrap();
        let expected = canonical(&execute_oracle(&phys).unwrap());
        assert_eq!(canonical(&execute_oracle(&expanded).unwrap()), expected);
        // Exactly one Aggregate survives (serial, above the merge).
        let aggs = expanded
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, PhysKind::Aggregate { .. }))
            .count();
        assert_eq!(aggs, 1, "{}", expanded.display());
    }

    /// Regression (replica Exchange key alignment): the Exchange pruning a
    /// broadcast replica must hash the *join-key* column of the aligned
    /// pair — not merely the first column whose attribute belongs to the
    /// partitioning equivalence class. Here the replica is a projection
    /// exposing two same-class attributes `m` (position 0) and `n`
    /// (position 1) with different values per row; the join is keyed on
    /// `n`. Hashing `m` would route replica rows away from the partition
    /// holding their join partners.
    #[test]
    fn replica_exchange_hashes_the_join_key_column() {
        let mut c = Catalog::new();
        let int = |name: &str| Field::new(name, DataType::Int);
        let rows2 = |vals: &[(i64, i64)]| -> Vec<Row> {
            vals.iter()
                .map(|&(a, b)| Row::new(vec![Value::Int(a), Value::Int(b)]))
                .collect()
        };
        let big1: Vec<(i64, i64)> = (0..200).map(|i| (i % 40, i)).collect();
        let big2: Vec<(i64, i64)> = (0..120).map(|i| (i % 40, i)).collect();
        let dim: Vec<(i64, i64)> = (0..30).map(|i| (i, (i * 7 + 3) % 40)).collect();
        let tail: Vec<(i64, i64)> = (0..60).map(|i| (i % 30, i)).collect();
        c.add(
            Table::new(
                "big1",
                Schema::new(vec![int("a"), int("pay")]),
                vec![],
                vec![],
                rows2(&big1),
            )
            .unwrap(),
        );
        c.add(
            Table::new(
                "big2",
                Schema::new(vec![int("b"), int("pay2")]),
                vec![],
                vec![],
                rows2(&big2),
            )
            .unwrap(),
        );
        c.add(
            Table::new(
                "dim",
                Schema::new(vec![int("u"), int("v")]),
                vec![],
                vec![],
                rows2(&dim),
            )
            .unwrap(),
        );
        c.add(
            Table::new(
                "tail",
                Schema::new(vec![int("w"), int("pay3")]),
                vec![],
                vec![],
                rows2(&tail),
            )
            .unwrap(),
        );

        let mut q = QueryBuilder::new(&c);
        let b1 = q.scan("big1", "b1", &["a", "pay"]).unwrap();
        let b2 = q.scan("big2", "b2", &["b"]).unwrap();
        let x = q.join(b1, b2, &[("b1.a", "b2.b")]).unwrap();
        let d = q.scan("dim", "d", &["u", "v"]).unwrap();
        // Computed projections mint fresh attribute ids, so the dim scan
        // itself exposes no join-key attribute and the subtree stays
        // replicable; `m` sits before `n` in the replica layout.
        let mu = d.col("u").unwrap().add(Expr::lit(0i64));
        let nv = d.col("v").unwrap().add(Expr::lit(0i64));
        let p = q
            .project(d, &[(mu, "m", DataType::Int), (nv, "n", DataType::Int)])
            .unwrap();
        let y = q.join(x, p, &[("b1.a", "n")]).unwrap();
        // `m` joins the same equivalence class via the tail join.
        let t = q.scan("tail", "t", &["w"]).unwrap();
        let z = q.join(y, t, &[("m", "t.w"), ("n", "t.w")]).unwrap();
        let plan = z.into_plan();
        let phys = lower(&plan, q.into_attrs(), &c).unwrap();

        let expected = canonical(&execute_oracle(&phys).unwrap());
        let (expanded, _) = partition_plan(&phys, 2).unwrap();
        assert_eq!(
            canonical(&execute_oracle(&expanded).unwrap()),
            expected,
            "{}",
            expanded.display()
        );
        // Every Exchange above the dim projection hashes `n` (position 1),
        // the join-key column — never `m` (position 0).
        let mut saw_exchange = false;
        for n in &expanded.nodes {
            if let PhysKind::Exchange { col, .. } = &n.kind {
                if n.layout.len() == 2 {
                    saw_exchange = true;
                    assert_eq!(*col, 1, "Exchange hashes a non-key class column");
                }
            }
        }
        assert!(
            saw_exchange,
            "expected a pruned replica\n{}",
            expanded.display()
        );
    }
}
