//! Tap points: runtime-injectable semijoin filters on operator outputs.
//!
//! This is the engine mechanism behind §V-B: "we extended our join and
//! group-by implementations to support registration of new semijoin
//! operators 'on the fly'; these semijoins are called when a tuple is
//! received and before it is processed internally by the operator."
//!
//! Every operator owns one [`FilterTap`] applied to rows it is about to
//! emit. Controllers (feed-forward or cost-based) inject [`InjectedFilter`]s
//! at any point during execution; operators snapshot the filter list once
//! per batch, so injection is wait-free on the hot path.

use parking_lot::RwLock;
use sip_common::hash::partition_of;
use sip_common::{ColumnarBatch, DigestBuffer, DigestCache, OpId, Row, SelVec};
use sip_filter::AipSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Restricts a filter built from *one partition's* state to the rows that
/// partition owns.
///
/// A per-partition AIP set summarizes only its own hash class of the
/// producing subexpression, so a row from another partition is outside the
/// set's domain — it must pass unprobed, never be dropped. With the scope
/// attached, a partition's filter can be injected plan-wide the moment that
/// partition's build side completes: early (small) partitions start pruning
/// sideways while slow (skewed) partitions are still building.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FilterScope {
    /// The producing partition.
    pub partition: u32,
    /// Total partitions in the producing plan.
    pub dop: u32,
}

impl FilterScope {
    /// Does the scoped filter apply to a row with this key digest?
    #[inline]
    pub fn applies(&self, digest: u64) -> bool {
        partition_of(digest, self.dop) == self.partition
    }
}

/// A semijoin filter probing specific output columns against an AIP set.
#[derive(Debug)]
pub struct InjectedFilter {
    /// Display label (e.g. `aip[ps2.ps_partkey] from op4`).
    pub label: String,
    /// Key column positions in the host operator's output layout.
    pub positions: Vec<usize>,
    /// The AIP set probed.
    pub set: Arc<AipSet>,
    /// Partition restriction for sets built from per-partition state;
    /// `None` = the set covers the whole subexpression.
    pub scope: Option<FilterScope>,
    /// Rows probed.
    pub probed: AtomicU64,
    /// Rows dropped.
    pub dropped: AtomicU64,
}

impl InjectedFilter {
    /// Create an unscoped (plan-wide) filter.
    pub fn new(label: impl Into<String>, positions: Vec<usize>, set: Arc<AipSet>) -> Self {
        Self::scoped(label, positions, set, None)
    }

    /// Create a filter, optionally restricted to one partition's rows.
    pub fn scoped(
        label: impl Into<String>,
        positions: Vec<usize>,
        set: Arc<AipSet>,
        scope: Option<FilterScope>,
    ) -> Self {
        InjectedFilter {
            label: label.into(),
            positions,
            set,
            scope,
            probed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Is `digest` outside this filter's partition scope? Such rows pass
    /// unprobed and uncounted.
    #[inline]
    fn out_of_scope(&self, digest: u64) -> bool {
        self.scope.is_some_and(|scope| !scope.applies(digest))
    }

    /// Probe a row without touching the metric counters; `Some(ok)` when the
    /// filter applied, `None` when the row is outside this filter's
    /// partition scope (must pass, uncounted).
    #[inline]
    pub fn probe_quiet(&self, row: &Row) -> Option<bool> {
        let digest = row.key_hash(&self.positions);
        if self.out_of_scope(digest) {
            return None;
        }
        let key = row.key_values(&self.positions);
        Some(self.set.probe(digest, &key))
    }

    /// Batch kernel: narrow `sel` to the rows this filter admits.
    ///
    /// `digests[i]` must be row `i`'s digest over `self.positions` (one
    /// shared hash pass per batch per key-column set — see
    /// [`sip_common::DigestCache`]). Rows outside the filter's partition
    /// scope pass unprobed; probed rows are flagged in `probed_mask` so the
    /// caller can tally "rows touched by ≥1 filter" once per batch.
    /// Returns `(probed, dropped)` for this filter — the caller publishes
    /// them with one atomic add per batch.
    pub fn probe_batch(
        &self,
        rows: &[Row],
        digests: &[u64],
        sel: &mut SelVec,
        probed_mask: &mut [bool],
    ) -> (u64, u64) {
        let mut probed = 0u64;
        let mut dropped = 0u64;
        sel.retain(|i| {
            let i = i as usize;
            let digest = digests[i];
            if self.out_of_scope(digest) {
                return true; // foreign partition: pass unprobed
            }
            probed += 1;
            probed_mask[i] = true;
            let ok = self.set.probe_at(digest, rows[i].values(), &self.positions);
            if !ok {
                dropped += 1;
            }
            ok
        });
        self.probed.fetch_add(probed, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        (probed, dropped)
    }

    /// Columnar twin of [`InjectedFilter::probe_batch`]: identical scope,
    /// counter, and selection semantics, but exact-set probes compare
    /// against the column storage in place instead of a row's value slice.
    /// Digest parity between the row and columnar hash passes guarantees
    /// the two paths admit exactly the same rows.
    pub fn probe_batch_cols(
        &self,
        batch: &ColumnarBatch,
        digests: &[u64],
        sel: &mut SelVec,
        probed_mask: &mut [bool],
    ) -> (u64, u64) {
        let mut probed = 0u64;
        let mut dropped = 0u64;
        sel.retain(|i| {
            let i = i as usize;
            let digest = digests[i];
            if self.out_of_scope(digest) {
                return true; // foreign partition: pass unprobed
            }
            probed += 1;
            probed_mask[i] = true;
            let ok = self.set.probe_cols(digest, batch, i, &self.positions);
            if !ok {
                dropped += 1;
            }
            ok
        });
        self.probed.fetch_add(probed, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        (probed, dropped)
    }

    /// Probe a row; `true` = may pass, `false` = provably dead. Updates the
    /// per-filter counters one row at a time — batch paths should prefer
    /// [`InjectedFilter::probe_batch`], which shares one digest pass per
    /// batch and publishes counters once per batch.
    #[inline]
    pub fn admits(&self, row: &Row) -> bool {
        match self.probe_quiet(row) {
            None => true,
            Some(ok) => {
                self.probed.fetch_add(1, Ordering::Relaxed);
                if !ok {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                ok
            }
        }
    }
}

/// How to combine a new filter with an existing one over the same columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergePolicy {
    /// Keep both; rows must pass every filter.
    Stack,
    /// Bitwise-intersect with an existing same-geometry Bloom filter
    /// (§IV-B), falling back to stacking when geometries differ.
    Intersect,
}

/// The per-operator filter chain.
#[derive(Debug, Default)]
pub struct FilterTap {
    filters: RwLock<Arc<Vec<Arc<InjectedFilter>>>>,
}

impl FilterTap {
    /// Empty tap.
    pub fn new() -> Self {
        FilterTap::default()
    }

    /// Snapshot the current chain (cheap Arc clone; done once per batch).
    #[inline]
    pub fn snapshot(&self) -> Arc<Vec<Arc<InjectedFilter>>> {
        self.filters.read().clone()
    }

    /// Inject a filter under a merge policy. Returns the resulting chain
    /// length.
    pub fn inject(&self, filter: InjectedFilter, policy: MergePolicy) -> usize {
        let mut guard = self.filters.write();
        let mut chain: Vec<Arc<InjectedFilter>> = guard.as_ref().clone();
        match policy {
            MergePolicy::Stack => chain.push(Arc::new(filter)),
            MergePolicy::Intersect => {
                let mut merged = false;
                for slot in chain.iter_mut() {
                    // Scopes must match: intersecting sets from
                    // different partitions would conflate different key
                    // domains.
                    if slot.positions == filter.positions && slot.scope == filter.scope {
                        if let (AipSet::Bloom(a), AipSet::Bloom(b)) =
                            (slot.set.as_ref(), filter.set.as_ref())
                        {
                            let mut combined = a.clone();
                            if combined.intersect(b).is_ok() {
                                *slot = Arc::new(InjectedFilter::scoped(
                                    format!("{} ∩ {}", slot.label, filter.label),
                                    filter.positions.clone(),
                                    Arc::new(AipSet::Bloom(combined)),
                                    filter.scope,
                                ));
                                merged = true;
                                break;
                            }
                        }
                    }
                }
                if !merged {
                    chain.push(Arc::new(filter));
                }
            }
        }
        let len = chain.len();
        *guard = Arc::new(chain);
        len
    }

    /// Drop all filters (memory-pressure safety valve; AIP is a performance
    /// optimization, never required for correctness).
    pub fn clear(&self) {
        *self.filters.write() = Arc::new(Vec::new());
    }

    /// Number of active filters.
    pub fn len(&self) -> usize {
        self.filters.read().len()
    }

    /// True when no filters are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Identifies an injection site: the output of operator `op`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TapSite(pub OpId);

/// Per-operator batch-probe state: a selection vector, a probed-row mask,
/// and the shared digest cache. One instance lives on each operator thread
/// (inside its `Emitter`, or in the operator body when the tap is fused
/// with routing) and is reused across batches, so steady state allocates
/// nothing.
///
/// Usage per batch: [`TapKernel::begin`], optionally
/// [`TapKernel::retain_by_digest`] to narrow the selection first (e.g. an
/// `Exchange` keeping only its own partition's rows), then
/// [`TapKernel::probe_chain`] to run the filter stack. Because routing and
/// probing draw digests from the same [`DigestCache`], a filter over the
/// routing columns costs no second hash pass.
#[derive(Debug, Default)]
pub struct TapKernel {
    sel: SelVec,
    probed_mask: Vec<bool>,
    cache: DigestCache,
}

impl TapKernel {
    /// Fresh kernel state.
    pub fn new() -> Self {
        TapKernel::default()
    }

    /// Start a new batch of `n` rows: identity selection, cleared probe
    /// mask, invalidated digest buffers.
    pub fn begin(&mut self, n: usize) {
        self.sel.fill_identity(n);
        self.probed_mask.clear();
        self.probed_mask.resize(n, false);
        self.cache.begin_batch();
    }

    /// The digest buffer for `positions` over `rows`, computed at most once
    /// for the current batch.
    pub fn digests(&mut self, rows: &[Row], positions: &[usize]) -> &DigestBuffer {
        self.cache.get(rows, positions)
    }

    /// The digest buffer for `positions` over a columnar batch, computed at
    /// most once for the current batch (shares the cache with the row
    /// getter — the digests are identical).
    pub fn digests_cols(&mut self, batch: &ColumnarBatch, positions: &[usize]) -> &DigestBuffer {
        self.cache.get_cols(batch, positions)
    }

    /// Narrow the selection by a predicate over each row's `positions`
    /// digest (e.g. hash-partition ownership). Shares the digest cache with
    /// [`TapKernel::probe_chain`].
    pub fn retain_by_digest(
        &mut self,
        rows: &[Row],
        positions: &[usize],
        mut keep: impl FnMut(u64) -> bool,
    ) {
        let digests = self.cache.get(rows, positions);
        // Field-disjoint borrows: `digests` borrows the cache, `sel` is its
        // own field.
        let d = digests.digests();
        self.sel.retain(|i| keep(d[i as usize]));
    }

    /// Columnar twin of [`TapKernel::retain_by_digest`].
    pub fn retain_by_digest_cols(
        &mut self,
        batch: &ColumnarBatch,
        positions: &[usize],
        mut keep: impl FnMut(u64) -> bool,
    ) {
        let digests = self.cache.get_cols(batch, positions);
        let d = digests.digests();
        self.sel.retain(|i| keep(d[i as usize]));
    }

    /// Run the filter chain over the current selection: one digest pass per
    /// distinct probe-column set, per-filter counters published once per
    /// batch. Returns `(probed_rows, dropped_rows)` for the host operator's
    /// metrics — `probed_rows` counts rows at least one filter actually
    /// applied to (partition-scoped filters pass foreign rows untouched).
    pub fn probe_chain(&mut self, chain: &[Arc<InjectedFilter>], rows: &[Row]) -> (u64, u64) {
        let before = self.sel.len();
        for f in chain {
            if self.sel.is_empty() {
                break;
            }
            let digests = self.cache.get(rows, &f.positions);
            let d = digests.digests();
            f.probe_batch(rows, d, &mut self.sel, &mut self.probed_mask);
        }
        let probed_rows = self.probed_mask.iter().filter(|&&p| p).count() as u64;
        (probed_rows, (before - self.sel.len()) as u64)
    }

    /// Columnar twin of [`TapKernel::probe_chain`].
    pub fn probe_chain_cols(
        &mut self,
        chain: &[Arc<InjectedFilter>],
        batch: &ColumnarBatch,
    ) -> (u64, u64) {
        let before = self.sel.len();
        for f in chain {
            if self.sel.is_empty() {
                break;
            }
            let digests = self.cache.get_cols(batch, &f.positions);
            let d = digests.digests();
            f.probe_batch_cols(batch, d, &mut self.sel, &mut self.probed_mask);
        }
        let probed_rows = self.probed_mask.iter().filter(|&&p| p).count() as u64;
        (probed_rows, (before - self.sel.len()) as u64)
    }

    /// Snapshot `op`'s tap chain, probe it over the current selection, and
    /// publish the host operator's `aip_probed` / `aip_dropped` — the one
    /// batch-tap entry point shared by the `Emitter` and the operators
    /// that fuse the tap with routing (Exchange, ShuffleWrite), so the
    /// counter semantics cannot drift between them. Returns the number of
    /// rows dropped (callers compact only when it is non-zero).
    pub fn probe_op(&mut self, ctx: &crate::context::ExecContext, op: OpId, rows: &[Row]) -> u64 {
        let chain = ctx.taps[op.index()].snapshot();
        if chain.is_empty() {
            return 0;
        }
        let (probed, dropped) = self.probe_chain(&chain, rows);
        let m = ctx.hub.op(op);
        m.aip_probed.fetch_add(probed, Ordering::Relaxed);
        m.aip_dropped.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// Columnar twin of [`TapKernel::probe_op`]: same snapshot, counter,
    /// and return semantics over a columnar batch.
    pub fn probe_op_cols(
        &mut self,
        ctx: &crate::context::ExecContext,
        op: OpId,
        batch: &ColumnarBatch,
    ) -> u64 {
        let chain = ctx.taps[op.index()].snapshot();
        if chain.is_empty() {
            return 0;
        }
        let (probed, dropped) = self.probe_chain_cols(&chain, batch);
        let m = ctx.hub.op(op);
        m.aip_probed.fetch_add(probed, Ordering::Relaxed);
        m.aip_dropped.fetch_add(dropped, Ordering::Relaxed);
        dropped
    }

    /// The current selection (valid after [`TapKernel::begin`]).
    pub fn sel(&self) -> &SelVec {
        &self.sel
    }

    /// Compact `rows` to the current selection (order-preserving, no
    /// clones).
    pub fn compact(&self, rows: &mut Vec<Row>) {
        self.sel.compact(rows);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_common::Value;
    use sip_filter::AipSetBuilder;

    fn set_of(keys: &[i64]) -> Arc<AipSet> {
        let mut b = AipSetBuilder::new(sip_filter::AipSetKind::Hash, keys.len(), 0.05, 1);
        for &k in keys {
            let key = vec![Value::Int(k)];
            b.insert(sip_common::hash_key(&key), &key);
        }
        Arc::new(b.finish())
    }

    fn row(k: i64) -> Row {
        Row::new(vec![Value::Int(k), Value::str("payload")])
    }

    #[test]
    fn filter_admits_members_only() {
        let f = InjectedFilter::new("t", vec![0], set_of(&[1, 2, 3]));
        assert!(f.admits(&row(2)));
        assert!(!f.admits(&row(9)));
        assert_eq!(f.probed.load(Ordering::Relaxed), 2);
        assert_eq!(f.dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stack_requires_all_filters() {
        let tap = FilterTap::new();
        tap.inject(
            InjectedFilter::new("a", vec![0], set_of(&[1, 2])),
            MergePolicy::Stack,
        );
        tap.inject(
            InjectedFilter::new("b", vec![0], set_of(&[2, 3])),
            MergePolicy::Stack,
        );
        let chain = tap.snapshot();
        assert_eq!(chain.len(), 2);
        let pass = |r: &Row| chain.iter().all(|f| f.admits(r));
        assert!(pass(&row(2)));
        assert!(!pass(&row(1)));
        assert!(!pass(&row(3)));
    }

    #[test]
    fn intersect_merges_blooms() {
        let bloom_of = |keys: &[i64]| {
            let mut b = AipSetBuilder::new(sip_filter::AipSetKind::Bloom, 64, 0.01, 1);
            for &k in keys {
                let key = vec![Value::Int(k)];
                b.insert(sip_common::hash_key(&key), &key);
            }
            Arc::new(b.finish())
        };
        let tap = FilterTap::new();
        tap.inject(
            InjectedFilter::new("a", vec![0], bloom_of(&[1, 2, 3])),
            MergePolicy::Intersect,
        );
        tap.inject(
            InjectedFilter::new("b", vec![0], bloom_of(&[2, 3, 4])),
            MergePolicy::Intersect,
        );
        // Merged into one filter that admits the intersection.
        assert_eq!(tap.len(), 1);
        let chain = tap.snapshot();
        assert!(chain[0].admits(&row(2)));
        assert!(chain[0].admits(&row(3)));
    }

    #[test]
    fn intersect_falls_back_to_stack_for_hash_sets() {
        let tap = FilterTap::new();
        tap.inject(
            InjectedFilter::new("a", vec![0], set_of(&[1, 2])),
            MergePolicy::Intersect,
        );
        tap.inject(
            InjectedFilter::new("b", vec![0], set_of(&[2, 3])),
            MergePolicy::Intersect,
        );
        assert_eq!(tap.len(), 2);
    }

    #[test]
    fn clear_empties_chain() {
        let tap = FilterTap::new();
        tap.inject(
            InjectedFilter::new("a", vec![0], set_of(&[1])),
            MergePolicy::Stack,
        );
        assert!(!tap.is_empty());
        tap.clear();
        assert!(tap.is_empty());
    }

    #[test]
    fn scoped_filter_passes_foreign_partitions_unprobed() {
        let dop = 2u32;
        // Find keys owned by partition 0 and partition 1.
        let owned_by = |p: u32| {
            (0i64..)
                .find(|&k| {
                    sip_common::hash::partition_of(sip_common::hash_key(&[Value::Int(k)]), dop) == p
                })
                .unwrap()
        };
        let mine = owned_by(0);
        let foreign = owned_by(1);
        // Partition 0's set contains nothing → drops every partition-0 key.
        let f = InjectedFilter::scoped(
            "p0",
            vec![0],
            set_of(&[]),
            Some(FilterScope { partition: 0, dop }),
        );
        // Foreign rows pass without being probed or dropped.
        assert!(f.admits(&row(foreign)));
        assert_eq!(f.probed.load(Ordering::Relaxed), 0);
        // Owned rows are probed (and dropped: the set is empty).
        assert!(!f.admits(&row(mine)));
        assert_eq!(f.probed.load(Ordering::Relaxed), 1);
        assert_eq!(f.dropped.load(Ordering::Relaxed), 1);
        assert_eq!(f.probe_quiet(&row(foreign)), None);
        assert_eq!(f.probe_quiet(&row(mine)), Some(false));
    }

    #[test]
    fn columnar_probe_batch_matches_row_probe_batch() {
        let rows: Vec<Row> = (0..64).map(row).collect();
        let batch = ColumnarBatch::from_rows(&rows);
        let mut digests = DigestBuffer::default();
        digests.compute(&rows, &[0]);
        // Unscoped and scoped (dop 2, both partitions) filters must keep
        // identical selections and counters on both layouts.
        let filters = [
            InjectedFilter::new("plain", vec![0], set_of(&[2, 5, 9, 33])),
            InjectedFilter::scoped(
                "scoped",
                vec![0],
                set_of(&[2, 5, 9, 33]),
                Some(FilterScope {
                    partition: 0,
                    dop: 2,
                }),
            ),
            InjectedFilter::scoped(
                "scoped-empty",
                vec![0],
                set_of(&[]),
                Some(FilterScope {
                    partition: 1,
                    dop: 2,
                }),
            ),
        ];
        for f in &filters {
            let mut sel_r = SelVec::default();
            sel_r.fill_identity(rows.len());
            let mut mask_r = vec![false; rows.len()];
            let (pr, dr) = f.probe_batch(&rows, digests.digests(), &mut sel_r, &mut mask_r);
            let mut sel_c = SelVec::default();
            sel_c.fill_identity(rows.len());
            let mut mask_c = vec![false; rows.len()];
            let (pc, dc) = f.probe_batch_cols(&batch, digests.digests(), &mut sel_c, &mut mask_c);
            assert_eq!((pr, dr), (pc, dc), "{} counters", f.label);
            assert_eq!(sel_r, sel_c, "{} selection", f.label);
            assert_eq!(mask_r, mask_c, "{} probed mask", f.label);
        }
    }

    #[test]
    fn intersect_keeps_different_scopes_apart() {
        let bloom_of = |keys: &[i64]| {
            let mut b = AipSetBuilder::new(sip_filter::AipSetKind::Bloom, 64, 0.01, 1);
            for &k in keys {
                let key = vec![Value::Int(k)];
                b.insert(sip_common::hash_key(&key), &key);
            }
            Arc::new(b.finish())
        };
        let tap = FilterTap::new();
        let scope = |p| {
            Some(FilterScope {
                partition: p,
                dop: 2,
            })
        };
        tap.inject(
            InjectedFilter::scoped("a", vec![0], bloom_of(&[1]), scope(0)),
            MergePolicy::Intersect,
        );
        tap.inject(
            InjectedFilter::scoped("b", vec![0], bloom_of(&[2]), scope(1)),
            MergePolicy::Intersect,
        );
        // Different partitions: stacked, not merged.
        assert_eq!(tap.len(), 2);
        tap.inject(
            InjectedFilter::scoped("c", vec![0], bloom_of(&[3]), scope(1)),
            MergePolicy::Intersect,
        );
        // Same partition: merged.
        assert_eq!(tap.len(), 2);
    }

    #[test]
    fn snapshot_isolated_from_later_injection() {
        let tap = FilterTap::new();
        let snap = tap.snapshot();
        tap.inject(
            InjectedFilter::new("a", vec![0], set_of(&[1])),
            MergePolicy::Stack,
        );
        assert_eq!(snap.len(), 0);
        assert_eq!(tap.snapshot().len(), 1);
    }
}
