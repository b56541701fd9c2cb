//! `AIPCANDIDATES` (Fig. 3): precompute, per attribute-equivalence class,
//! who can *produce* an AIP set and who can *use* one.
//!
//! The paper phrases this over the conjunct list `P`; since the
//! implementation targets equality conditions only (§III-C), the class
//! structure of the union-find `EQ` carries the same information: an
//! attribute `A` buffered by a stateful operator is a candidate source
//! exactly when its class has members introduced outside that operator's
//! subtree, and those members' introduction points are the injection sites.

use sip_common::{AttrId, FxHashMap, FxHashSet, OpId};
use sip_engine::PhysPlan;
use sip_plan::EqClasses;

/// A potential producer of an AIP set: the state a stateful operator holds
/// for one input, keyed by `attr`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AipSource {
    /// The stateful operator buffering the subexpression.
    pub op: OpId,
    /// Which input's state (0/1).
    pub input: usize,
    /// The candidate key attribute.
    pub attr: AttrId,
    /// Position of `attr` in the buffered rows' layout (= the child's
    /// output layout).
    pub pos: usize,
}

/// A potential consumer: an injection site whose output rows can be pruned
/// against an AIP set of the class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AipUser {
    /// The injection site — the lowest operator producing the equated
    /// attribute (usually a scan), so pruning happens as early as possible.
    pub site: OpId,
    /// The equated attribute at the site.
    pub attr: AttrId,
    /// Its position in the site's output layout.
    pub pos: usize,
    /// The first stateful ancestor of the site: the operator whose work
    /// shrinks when the site is filtered (the paper's `n`, Fig. 4 line 5).
    pub consumer: OpId,
}

/// Sources and users for one attribute-equivalence class.
#[derive(Clone, Debug, Default)]
pub struct ClassCandidates {
    /// Candidate producers.
    pub sources: Vec<AipSource>,
    /// Candidate consumers, deduplicated by site.
    pub users: Vec<AipUser>,
}

/// The full candidate index for one query.
#[derive(Clone, Debug)]
pub struct Candidates {
    /// Per-class candidates, keyed by union-find class root.
    pub classes: FxHashMap<u32, ClassCandidates>,
    /// Subtree membership: `subtree[op]` = every op in `op`'s subtree
    /// (inclusive). Used to stop a source filtering its own inputs.
    subtrees: Vec<FxHashSet<u32>>,
}

impl Candidates {
    /// Run `AIPCANDIDATES` over a physical plan with the query's transitive
    /// equality classes.
    pub fn compute(plan: &PhysPlan, eq: &EqClasses) -> Candidates {
        let subtrees = compute_subtrees(plan);
        let mut classes: FxHashMap<u32, ClassCandidates> = FxHashMap::default();

        // Pass 1 (Fig. 3 lines 1-9): sources = children of stateful nodes.
        for node in &plan.nodes {
            if !node.kind.is_stateful() {
                continue;
            }
            for (input, &child) in node.inputs.iter().enumerate() {
                let child_layout = &plan.node(child).layout;
                for (pos, &attr) in child_layout.iter().enumerate() {
                    let class = eq.class(attr);
                    // Candidate only when some class member is introduced
                    // outside this child's subtree.
                    if class_has_external_member(plan, eq, attr, &subtrees[child.index()]) {
                        classes.entry(class).or_default().sources.push(AipSource {
                            op: node.id,
                            input,
                            attr,
                            pos,
                        });
                    }
                }
            }
        }

        // Pass 2 (Fig. 3 lines 10-16): users = injection sites for each
        // class that has at least one source. Every node carrying an
        // equated attribute is a site — not just the introducing scan —
        // because scans may already have finished (their rows in flight)
        // when a set completes; the paper's semijoins at stateful-operator
        // inputs keep pruning in exactly that situation.
        let class_roots: Vec<u32> = classes.keys().copied().collect();
        for class in class_roots {
            let mut seen_sites: FxHashSet<u32> = FxHashSet::default();
            let mut users = Vec::new();
            for info in plan.attrs.iter() {
                let attr = info.id;
                if eq.class(attr) != class {
                    continue;
                }
                for site in plan.nodes_with_attr(attr) {
                    if !seen_sites.insert(site.0) {
                        continue;
                    }
                    let pos = plan
                        .node(site)
                        .layout
                        .iter()
                        .position(|a| *a == attr)
                        .expect("site carries attr");
                    let Some(consumer) = first_stateful_ancestor(plan, site) else {
                        continue; // nothing downstream shrinks; filtering is pointless
                    };
                    users.push(AipUser {
                        site,
                        attr,
                        pos,
                        consumer,
                    });
                }
            }
            // Deepest-first order, as ESTIMATEBENEFIT walks users "in
            // inverse order of depth" (Fig. 4 line 5).
            users.sort_by_key(|u| std::cmp::Reverse(plan.depth(u.site)));
            classes.entry(class).or_default().users = users;
        }

        // Fig. 3's final step (via §IV-A): drop classes nobody can use.
        classes.retain(|_, c| !c.sources.is_empty() && !c.users.is_empty());
        Candidates { classes, subtrees }
    }

    /// Sources buffered at `(op, input)`.
    pub fn sources_at(&self, op: OpId, input: usize) -> Vec<&AipSource> {
        self.classes
            .values()
            .flat_map(|c| c.sources.iter())
            .filter(|s| s.op == op && s.input == input)
            .collect()
    }

    /// Is `node` inside the subtree rooted at `root`?
    pub fn in_subtree(&self, root: OpId, node: OpId) -> bool {
        self.subtrees[root.index()].contains(&node.0)
    }

    /// The users a given source may filter: same class, not inside the
    /// source's own input subtree.
    pub fn users_for_source<'a>(
        &'a self,
        plan: &PhysPlan,
        eq: &EqClasses,
        source: &AipSource,
    ) -> Vec<&'a AipUser> {
        let child = plan.node(source.op).inputs[source.input];
        let Some(class) = self.classes.get(&eq.class(source.attr)) else {
            return vec![];
        };
        class
            .users
            .iter()
            .filter(|u| !self.in_subtree(child, u.site))
            .collect()
    }
}

fn compute_subtrees(plan: &PhysPlan) -> Vec<FxHashSet<u32>> {
    let mut out: Vec<FxHashSet<u32>> = Vec::with_capacity(plan.nodes.len());
    for node in &plan.nodes {
        let mut set = FxHashSet::default();
        set.insert(node.id.0);
        for &c in &node.inputs {
            set.extend(out[c.index()].iter().copied());
        }
        out.push(set);
    }
    out
}

fn class_has_external_member(
    plan: &PhysPlan,
    eq: &EqClasses,
    attr: AttrId,
    subtree: &FxHashSet<u32>,
) -> bool {
    let class = eq.class(attr);
    plan.attrs.iter().any(|info| {
        info.id != attr
            && eq.class(info.id) == class
            && plan
                .introducer(info.id)
                .is_some_and(|intro| !subtree.contains(&intro.0))
    })
}

fn first_stateful_ancestor(plan: &PhysPlan, op: OpId) -> Option<OpId> {
    plan.ancestors(op)
        .into_iter()
        .find(|&a| plan.node(a).kind.is_stateful())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_data::{generate, Catalog, TpchConfig};
    use sip_engine::lower;
    use sip_expr::{AggFunc, Expr};
    use sip_plan::{PredicateIndex, QueryBuilder};

    fn catalog() -> Catalog {
        generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 13,
            zipf_z: 0.0,
        })
        .unwrap()
    }

    /// Fig. 1 miniature: (part ⋈ partsupp) ⋈ (sum availqty per partkey).
    fn fig1_mini(c: &Catalog) -> (PhysPlan, EqClasses) {
        let mut q = QueryBuilder::new(c);
        let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
        let pred = p.col("p_size").unwrap().eq(Expr::lit(1i64));
        let p = q.filter(p, pred);
        let ps1 = q.scan("partsupp", "ps1", &["ps_partkey"]).unwrap();
        let j1 = q
            .join(p, ps1, &[("p.p_partkey", "ps1.ps_partkey")])
            .unwrap();
        let ps2 = q
            .scan("partsupp", "ps2", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let qty = ps2.col("ps_availqty").unwrap();
        let avail = q
            .aggregate(ps2, &["ps_partkey"], &[(AggFunc::Sum, qty, "avail")])
            .unwrap();
        let j2 = q
            .join(j1, avail, &[("p.p_partkey", "ps2.ps_partkey")])
            .unwrap();
        let logical = j2.into_plan();
        let idx = PredicateIndex::build(&logical);
        let plan = lower(&logical, q.into_attrs(), c).unwrap();
        (plan, idx.eq)
    }

    #[test]
    fn partkey_class_has_sources_and_users() {
        let c = catalog();
        let (plan, eq) = fig1_mini(&c);
        let cands = Candidates::compute(&plan, &eq);
        // The partkey class is the only class with candidates.
        assert_eq!(cands.classes.len(), 1);
        let class = cands.classes.values().next().unwrap();
        // Sources: both sides of j1, both sides of j2, aggregate input.
        assert!(class.sources.len() >= 4, "{:?}", class.sources);
        // Users: the three scans at least (filter above part scan shares
        // the introducer — introducer is the scan itself).
        assert!(class.users.len() >= 3, "{:?}", class.users);
        // Every user site's layout really carries the attr at pos.
        for u in &class.users {
            assert_eq!(plan.node(u.site).layout[u.pos], u.attr);
            assert!(plan.node(u.consumer).kind.is_stateful());
        }
        // Users are deepest-first.
        let depths: Vec<usize> = class.users.iter().map(|u| plan.depth(u.site)).collect();
        let mut sorted = depths.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(depths, sorted);
    }

    #[test]
    fn source_never_filters_its_own_subtree() {
        let c = catalog();
        let (plan, eq) = fig1_mini(&c);
        let cands = Candidates::compute(&plan, &eq);
        let class = cands.classes.values().next().unwrap();
        // The aggregate-input source (ps2 side) must not list the ps2 scan
        // as a user of its own set.
        let agg_source = class
            .sources
            .iter()
            .find(|s| matches!(plan.node(s.op).kind, sip_engine::PhysKind::Aggregate { .. }))
            .expect("aggregate source exists");
        let users = cands.users_for_source(&plan, &eq, agg_source);
        let child = plan.node(agg_source.op).inputs[agg_source.input];
        for u in &users {
            assert!(!cands.in_subtree(child, u.site));
        }
        // But it can filter the part/ps1 side scans.
        assert!(!users.is_empty());
    }

    #[test]
    fn no_candidates_without_cross_subtree_equality() {
        let c = catalog();
        let mut q = QueryBuilder::new(&c);
        let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
        let pred = p.col("p_size").unwrap().eq(Expr::lit(1i64));
        let fp = q.filter(p, pred);
        let logical = fp.into_plan();
        let idx = PredicateIndex::build(&logical);
        let plan = lower(&logical, q.into_attrs(), &c).unwrap();
        let cands = Candidates::compute(&plan, &idx.eq);
        assert!(cands.classes.is_empty());
    }

    #[test]
    fn sources_at_lookup() {
        let c = catalog();
        let (plan, eq) = fig1_mini(&c);
        let cands = Candidates::compute(&plan, &eq);
        let agg = plan
            .nodes
            .iter()
            .find(|n| matches!(n.kind, sip_engine::PhysKind::Aggregate { .. }))
            .unwrap();
        let at = cands.sources_at(agg.id, 0);
        assert_eq!(at.len(), 1);
        assert_eq!(at[0].pos, 0); // ps_partkey is the first scanned column
    }
}
