//! The one AIP publish path, shared by both controllers.
//!
//! Feed-forward (§IV-A) and cost-based (§IV-B) AIP differ only in *when*
//! a set is built and *whether*. Everything after a controller holds a
//! finished [`AipSet`] lives here: events, registry publication, scoped
//! injection, the cross-partition OR-merge, and interest accounting.

use crate::candidates::{AipSource, AipUser, Candidates};
use crate::registry::AipRegistry;
use parking_lot::Mutex;
use sip_common::trace::FilterEvent;
use sip_common::trace::FilterEventKind::{Built, OrMerged, Scoped};
use sip_common::{FxHashMap, OpId};
use sip_engine::{CompletionEvent, ExecContext, FilterScope, InjectedFilter, MergePolicy};
use sip_filter::AipSet;
use sip_plan::EqClasses;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Per-partition AIP sets keyed by the *source plan* identity of their
/// producer: (logical op, input, attr).
type PartialSets = FxHashMap<(u32, usize, u32), Vec<Arc<AipSet>>>;

/// One controller's publish path: its registry, candidate index and
/// partial-set tracker.
pub(crate) struct Publisher {
    /// Label prefix of events and filters (`ff` / `cb`).
    tag: &'static str,
    pub(crate) eq: EqClasses,
    pub(crate) registry: Arc<AipRegistry>,
    candidates: Mutex<Option<Arc<Candidates>>>,
    /// Per-partition sets awaiting their OR-merge. A producer one of
    /// whose partitions never publishes (a rejected or discarded set)
    /// never completes its union; the scoped partials keep working alone.
    partial_sets: Mutex<PartialSets>,
}

impl Publisher {
    pub(crate) fn new(tag: &'static str, eq: EqClasses) -> Self {
        Publisher {
            tag,
            eq,
            registry: AipRegistry::new(),
            candidates: Mutex::new(None),
            partial_sets: Mutex::new(FxHashMap::default()),
        }
    }

    /// Per-run start: compute the candidate index and register one unit of
    /// interest per user. Partial sets are keyed by per-plan operator
    /// index, so residue of an earlier attempt of a retried run would
    /// complete this attempt's OR-merge early with whole partitions
    /// missing; it is dropped here.
    pub(crate) fn start(&self, ctx: &ExecContext) -> Arc<Candidates> {
        self.partial_sets.lock().clear();
        let cands = Arc::new(Candidates::compute(&ctx.plan, &self.eq));
        for (class, cc) in &cands.classes {
            self.registry.register_interest(*class, cc.users.len());
        }
        *self.candidates.lock() = Some(Arc::clone(&cands));
        cands
    }

    /// The candidate index of the current run.
    pub(crate) fn candidates(&self) -> Option<Arc<Candidates>> {
        self.candidates.lock().clone()
    }

    /// Interest accounting: every user whose rows feed the completed input
    /// is done consuming, so its unit of interest is retired.
    pub(crate) fn input_complete(&self, ctx: &ExecContext, ev: &CompletionEvent<'_>) {
        let Some(cands) = self.candidates() else {
            return;
        };
        let input = ctx.plan.node(ev.op).inputs[ev.input];
        for (class, cc) in &cands.classes {
            for u in &cc.users {
                if u.consumer == ev.op && cands.in_subtree(input, u.site) {
                    self.registry.decrement_interest(*class);
                }
            }
        }
    }

    /// The users `source` may still filter: not finished, and not a
    /// partial-aggregate value column (those values are not final until
    /// the merge aggregate runs).
    pub(crate) fn live_users<'a>(
        &self,
        ctx: &ExecContext,
        cands: &'a Candidates,
        source: &AipSource,
    ) -> Vec<&'a AipUser> {
        cands
            .users_for_source(&ctx.plan, &self.eq, source)
            .into_iter()
            .filter(|u| {
                let partitions = ctx.partitions.as_ref();
                !ctx.hub.op(u.site).finished.load(Ordering::Relaxed)
                    && partitions.is_none_or(|m| m.filterable_at(u.site, u.pos))
            })
            .collect()
    }

    /// Publish `set`, built from `source`'s state since `t_build`, and
    /// inject it at `users`. Returns the plan-wide union when this set was
    /// the last partition its producer's OR-merge waited for.
    ///
    /// A set built from partition `p`'s state covers only `p`'s hash class.
    /// When the source attribute is in the *producing stream's*
    /// partitioning class (a shuffle changes the class mid-plan, so the
    /// check is per-operator), the set is injected at once under a
    /// [`FilterScope`], so `p` prunes sideways before slow (skewed)
    /// partitions finish; otherwise no scope expresses its coverage. Either
    /// way the set is parked, and once all `dop` partitions of the logical
    /// producer have reported, their OR-merge covers the whole
    /// subexpression and is injected plan-wide — this is how sideways
    /// information passes *through* a repartition boundary.
    pub(crate) fn publish(
        &self,
        ctx: &ExecContext,
        cands: &Candidates,
        source: &AipSource,
        set: Arc<AipSet>,
        t_build: Instant,
        users: &[&AipUser],
    ) -> Option<Arc<AipSet>> {
        let (op, input, plan) = (source.op, source.input, &ctx.plan);
        let event = |kind, site: OpId, label, build_nanos, set: &AipSet| {
            ctx.hub.trace.filter_event(FilterEvent {
                kind,
                site: site.0,
                label,
                t_nanos: ctx.hub.trace.now(),
                build_nanos,
                keys: set.n_keys(),
                bytes: set.size_bytes() as u64,
            })
        };
        let class = self.eq.class(source.attr);
        let attr_name = plan.attrs.name(source.attr);
        let tag = format!("{}[{attr_name}]", self.tag);
        let partition = ctx
            .partitions
            .as_ref()
            .and_then(|m| Some((m, m.partition(op)?)));
        let part = partition.map_or(String::new(), |(m, p)| format!(" part{p}/{}", m.dop));
        let built = format!("{tag} from {op}/in{input}{part}");
        event(Built, op, built, t_build.elapsed().as_nanos() as u64, &set);

        let state_stream = plan.node(op).inputs[input];
        if partition.is_none_or(|(m, _)| m.in_class_at(state_stream, source.attr)) {
            let provenance = format!("{op}/input{input} on {attr_name}{part}");
            self.registry.publish(class, Arc::clone(&set), provenance);
            if partition.is_some() {
                event(Scoped, op, format!("{tag}{part}"), 0, &set);
            }
            let scope = partition.map(|(m, p)| FilterScope {
                partition: p,
                dop: m.dop,
            });
            // A site whose own stream is partitioned on the probed attribute
            // and owned by partition q != p never carries an in-scope row.
            // Sites partitioned on a different class (the far side of a
            // shuffle) mix hash classes of this attribute, so they keep the
            // filter and the per-row scope check routes.
            let foreign = |u: &AipUser| {
                partition.is_some_and(|(m, p)| {
                    matches!(m.partition(u.site), Some(q) if q != p)
                        && m.in_class_at(u.site, u.attr)
                })
            };
            for u in users.iter().filter(|u| !foreign(u)) {
                let label = format!("{tag} @{}{part}", u.site);
                let filter = InjectedFilter::scoped(label, vec![u.pos], Arc::clone(&set), scope);
                ctx.inject_filter(u.site, filter, MergePolicy::Intersect);
            }
        }

        // Park the partial; the last partition to arrive takes the batch.
        let (map, _) = partition?;
        let logical = map.logical(op);
        let partials = {
            let mut pending = self.partial_sets.lock();
            let slot = pending
                .entry((logical.0, input, source.attr.0))
                .or_default();
            slot.push(set);
            (slot.len() as u32 == map.dop).then(|| std::mem::take(slot))
        }?;
        // Geometry mismatches (differently sized Blooms) abandon the merge;
        // the scoped partials already injected keep working.
        let mut merged = (*partials[0]).clone();
        if !partials[1..].iter().all(|s| merged.union(s).is_ok()) {
            return None;
        }
        let merged = Arc::new(merged);
        let label = format!("{tag} union of {}", map.dop);
        event(OrMerged, logical, label, 0, &merged);
        let provenance = format!(
            "{logical}/input{input} on {attr_name} [union of {} parts]",
            map.dop
        );
        self.registry
            .publish(class, Arc::clone(&merged), provenance);
        // Intersect: other logical sources may have injected their own
        // (still-needed) filters over the same columns. The subsumed scoped
        // partials stay in the chain; they are correct, cheap (scope check
        // first), and bounded by dop per source.
        for u in self.live_users(ctx, cands, source) {
            let label = format!("{tag} @{} union", u.site);
            let filter = InjectedFilter::new(label, vec![u.pos], Arc::clone(&merged));
            ctx.inject_filter(u.site, filter, MergePolicy::Intersect);
        }
        Some(merged)
    }
}
