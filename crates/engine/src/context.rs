//! Shared per-execution context: options, taps, metrics, collectors.

use crate::delay::{DelayModel, SourceModel};
use crate::fault::{FaultPlan, FaultState};
use crate::link::LinkSpec;
use crate::metrics::{ExecMetrics, FilterStat, MetricsHub};
use crate::monitor::RowCollector;
use crate::physical::{PhysKind, PhysPlan};
use crate::taps::{FilterTap, InjectedFilter, MergePolicy};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use sip_common::cancel::CancelToken;
use sip_common::error::ExecFailure;
use sip_common::retry::RetryPolicy;
use sip_common::trace::{OpTracer, TraceLevel};
use sip_common::{AttrId, Batch, FxHashMap, FxHashSet, OpId, SipError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Describes how an expanded (partition-parallel) plan maps back onto the
/// serial plan it was built from. Produced by `sip-parallel`, consumed by
/// AIP controllers (to scope per-partition filters and OR-merge them into
/// plan-wide ones) and by per-partition metrics rollups.
#[derive(Clone, Debug)]
pub struct PartitionMap {
    /// Degree of parallelism the plan was expanded for.
    pub dop: u32,
    /// For each expanded operator: `Some(p)` when the operator is part of
    /// partition `p`'s clone (including replicated subtrees instantiated
    /// for that partition), `None` for the serial section (merges, final
    /// aggregates, the tail above the region).
    pub partition_of: Vec<Option<u32>>,
    /// For each expanded operator: the operator of the *source* plan it was
    /// cloned from (synthesized Exchange/Merge nodes map to the source
    /// operator they wrap).
    pub logical_of: Vec<OpId>,
    /// The attribute-equivalence class the plan's partitioned *scans* are
    /// hash-split on (the expander's top-scoring class). Kept for display
    /// and back-compat; per-operator scoping should use
    /// [`PartitionMap::in_class_at`], which understands that a shuffle
    /// changes the partitioning class mid-plan.
    pub class_attrs: FxHashSet<AttrId>,
    /// For each expanded operator in a partition region: the id (into
    /// [`PartitionMap::classes`]) of the partitioning class its *output
    /// rows* obey — i.e. every row at partition `p` hashes to `p` on every
    /// attribute of that class. `None` for serial-section operators.
    pub op_class: Vec<Option<u32>>,
    /// The interned partitioning classes. Unlike `class_attrs` (a whole
    /// equivalence class), these hold only attributes whose *values*
    /// provably obey the partition-hash invariant on that stream.
    pub classes: Vec<FxHashSet<AttrId>>,
    /// Expanded operators whose aggregate-value columns hold *partial*
    /// (per-partition) accumulator states awaiting the final merge
    /// aggregate — the partial clones themselves and the Merge feeding the
    /// final aggregate. Maps op index → number of leading group columns.
    /// An injected filter probing a value column here would prune a
    /// partition's contribution and corrupt the merged aggregate; group
    /// columns stay filterable (they prune whole groups, by value).
    pub partial_agg_group_cols: FxHashMap<u32, usize>,
}

impl PartitionMap {
    /// The partition an expanded operator belongs to, if any.
    pub fn partition(&self, op: OpId) -> Option<u32> {
        self.partition_of.get(op.index()).copied().flatten()
    }

    /// The source-plan operator an expanded operator was cloned from.
    pub fn logical(&self, op: OpId) -> OpId {
        self.logical_of[op.index()]
    }

    /// Is `attr` part of the scan partitioning class?
    pub fn in_class(&self, attr: AttrId) -> bool {
        self.class_attrs.contains(&attr)
    }

    /// May an injected filter probe position `pos` of `op`'s output?
    /// False only for the aggregate-value columns of partial-aggregate
    /// sites, whose values are not final until the merge aggregate runs.
    pub fn filterable_at(&self, op: OpId, pos: usize) -> bool {
        match self.partial_agg_group_cols.get(&op.0) {
            Some(&n_groups) => pos < n_groups,
            None => true,
        }
    }

    /// Does `attr` obey the partition-hash invariant on `op`'s output
    /// stream? True exactly when a per-partition AIP set built from state
    /// fed by `op` can be injected plan-wide under a
    /// [`crate::taps::FilterScope`] keyed by `attr`.
    pub fn in_class_at(&self, op: OpId, attr: AttrId) -> bool {
        self.op_class
            .get(op.index())
            .copied()
            .flatten()
            .map(|c| self.classes[c as usize].contains(&attr))
            .unwrap_or(false)
    }
}

/// A message flowing between operators.
#[derive(Debug)]
pub enum Msg {
    /// A batch of rows.
    Batch(Batch),
    /// A batch in columnar layout. Operators accept both payload kinds;
    /// the stateless pipeline (scan → filter/project → exchange/shuffle)
    /// keeps data columnar, while row seams (join state, aggregation,
    /// the root sink) convert on receipt.
    Cols(sip_common::ColumnarBatch),
    /// End of stream.
    Eof,
}

impl Msg {
    /// Rows carried by this message (0 for EOF).
    pub fn len(&self) -> usize {
        match self {
            Msg::Batch(b) => b.len(),
            Msg::Cols(c) => c.len(),
            Msg::Eof => 0,
        }
    }

    /// True when the message carries no rows (including EOF).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Options for one execution.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Rows per inter-operator batch.
    pub batch_size: usize,
    /// Bounded-channel capacity (batches) — the backpressure window.
    pub channel_capacity: usize,
    /// Source models (delayed or remote), keyed by scan binding, then by
    /// table name as fallback. Scans with no entry read local storage.
    pub sources: FxHashMap<String, SourceModel>,
    /// Collect result rows at the sink (disable for pure timing runs of
    /// large outputs).
    pub collect_rows: bool,
    /// How much runtime detail the `sip-trace` layer records
    /// ([`TraceLevel::Off`] by default — routing/skew counts still flow).
    pub trace_level: TraceLevel,
    /// Wall-clock budget for the whole query. When it expires the shared
    /// [`CancelToken`] trips and the run returns a deadline-exceeded
    /// execution error carrying the per-phase time shares recorded so
    /// far. `None` (the default) = no deadline.
    pub deadline: Option<Duration>,
    /// Injected faults for chaos testing ([`FaultPlan::none`] by
    /// default — the per-batch check is two branches when empty).
    pub faults: FaultPlan,
    /// Recovery policy. `None` (the default) is fail-fast: the first
    /// failure kills the query. `Some(policy)` lets the whole-run retry
    /// loop ([`crate::run_with_recovery`]) re-run the query on panics,
    /// errors and stalls, and — when the policy sets a `stall_quantum` —
    /// arms the per-run progress watchdog.
    pub retry: Option<RetryPolicy>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            batch_size: 1024,
            channel_capacity: 16,
            sources: FxHashMap::default(),
            collect_rows: true,
            trace_level: TraceLevel::default(),
            deadline: None,
            faults: FaultPlan::none(),
            retry: None,
        }
    }
}

impl ExecOptions {
    /// Validated construction: the two sizing knobs with everything else at
    /// defaults. Returns a [`SipError::Config`](sip_common::SipError) for
    /// values that would wedge or panic the executor instead of failing at
    /// runtime inside an operator thread.
    pub fn validated(batch_size: usize, channel_capacity: usize) -> sip_common::Result<Self> {
        let opts = ExecOptions {
            batch_size,
            channel_capacity,
            ..Default::default()
        };
        opts.validate()?;
        Ok(opts)
    }

    /// Check the sizing invariants. Called by the executor entry points, so
    /// a hand-assembled `ExecOptions` is rejected with a config error
    /// before any operator thread spawns.
    pub fn validate(&self) -> sip_common::Result<()> {
        if self.batch_size == 0 {
            return Err(sip_common::SipError::Config(
                "batch_size must be at least 1 row".into(),
            ));
        }
        if self.channel_capacity == 0 {
            return Err(sip_common::SipError::Config(
                "channel_capacity must hold at least 1 batch (the backpressure window)".into(),
            ));
        }
        if let Some(d) = self.deadline {
            if d.is_zero() {
                return Err(sip_common::SipError::Config(
                    "deadline of 0 would cancel every query before its first batch; \
                     use None for no deadline or a positive duration"
                        .into(),
                ));
            }
        }
        self.faults.validate()?;
        if let Some(policy) = &self.retry {
            policy.validate()?;
        }
        for (binding, source) in &self.sources {
            let SourceModel::Delayed(model) = source else {
                continue;
            };
            model.validate().map_err(|e| {
                sip_common::SipError::Config(format!("delay model for {binding:?}: {e}"))
            })?;
        }
        Ok(())
    }

    /// Add a delay model for a binding or table name.
    pub fn with_delay(mut self, binding: impl Into<String>, model: DelayModel) -> Self {
        self.sources
            .insert(binding.into(), SourceModel::Delayed(model));
        self
    }

    /// Serve a table (or one binding of it) from a remote site over `link`.
    pub fn with_remote(mut self, table: impl Into<String>, link: LinkSpec) -> Self {
        self.sources.insert(table.into(), SourceModel::Remote(link));
        self
    }

    /// Set the `sip-trace` recording level.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace_level = level;
        self
    }

    /// Set a wall-clock deadline for the whole query.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Install an injected-fault plan (chaos testing).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Enable the recovery layer under `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Look up the source model for a scan.
    pub fn source_for(&self, binding: &str, table: &str) -> Option<&SourceModel> {
        self.sources
            .get(binding)
            .or_else(|| self.sources.get(table))
    }
}

/// Shared state for one run: the plan, metrics hub, tap points, and
/// controller-installed collectors.
pub struct ExecContext {
    /// The executing plan.
    pub plan: Arc<PhysPlan>,
    /// Metrics hub.
    pub hub: Arc<MetricsHub>,
    /// One tap per operator (indexed by OpId), applied to that operator's
    /// output rows.
    pub taps: Vec<FilterTap>,
    /// Execution options.
    pub options: ExecOptions,
    /// Partition structure when this context executes an expanded
    /// partition-parallel plan (`None` for serial plans).
    pub partitions: Option<Arc<PartitionMap>>,
    /// The shared cancellation token for this run. Trips on the first
    /// failure (or deadline, or an explicit cancel); every operator
    /// observes it once per batch and winds down.
    pub cancel: CancelToken,
    /// The first error of each rank (see [`ExecContext::fail`]).
    errors: Mutex<[Option<SipError>; 3]>,
    /// Every thread this run spawned, counted in and out.
    pub threads: ThreadLedger,
    collectors: Mutex<FxHashMap<(u32, usize), Box<dyn RowCollector>>>,
    /// Shuffle-mesh producer channels, `(mesh, writer)` → one bounded
    /// `Sender` per consumer partition, in partition order. Built from the
    /// plan's `ShuffleWrite`/`ShuffleRead` nodes; taken once by each
    /// writer thread at spawn.
    shuffle_tx: Mutex<MeshEndpoints<Sender<Msg>>>,
    /// Shuffle-mesh consumer channels, `(mesh, partition)` → one bounded
    /// `Receiver` per writer, in writer order. Taken once by each reader
    /// thread at spawn.
    shuffle_rx: Mutex<MeshEndpoints<Receiver<Msg>>>,
}

/// Per-mesh channel endpoints keyed by `(mesh, writer-or-partition)`.
type MeshEndpoints<T> = FxHashMap<(u32, u32), Vec<T>>;

/// Per-run thread accounting. The executor counts each thread it spawns;
/// each thread counts itself in on entry and out through a drop guard
/// in its own body. Because the thread does its own counting, a balanced
/// ledger (`started == spawned`, `live == 0` once the run returns) shows
/// that every thread really ran and really finished — not merely that a
/// handle was created and joined.
#[derive(Debug, Default)]
pub struct ThreadLedger {
    spawned: AtomicU64,
    started: AtomicU64,
    live: AtomicU64,
}

impl ThreadLedger {
    /// Count one thread the executor is spawning (spawner side).
    pub(crate) fn count_spawn(&self) {
        self.spawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Count the calling thread in; the returned guard counts it out when
    /// the thread body ends, by return or by unwind.
    pub(crate) fn enter(&self) -> LiveThread<'_> {
        self.started.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(1, Ordering::Relaxed);
        LiveThread(self)
    }

    /// Threads spawned so far.
    pub fn spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Threads that entered their bodies so far.
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::Relaxed)
    }

    /// Threads currently inside their bodies.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }
}

/// Drop guard of one counted thread (see [`ThreadLedger::enter`]).
pub(crate) struct LiveThread<'a>(&'a ThreadLedger);

impl Drop for LiveThread<'_> {
    fn drop(&mut self) {
        self.0.live.fetch_sub(1, Ordering::Relaxed);
    }
}

impl ExecContext {
    /// Build a context for `plan`.
    pub fn new(plan: Arc<PhysPlan>, options: ExecOptions) -> Arc<Self> {
        Self::build(plan, options, None)
    }

    /// Build a context for an expanded partition-parallel plan. Every
    /// partition clone gets its own [`FilterTap`] and metrics slot simply by
    /// being its own operator.
    pub fn new_partitioned(
        plan: Arc<PhysPlan>,
        options: ExecOptions,
        partitions: Arc<PartitionMap>,
    ) -> Arc<Self> {
        Self::build(plan, options, Some(partitions))
    }

    fn build(
        plan: Arc<PhysPlan>,
        options: ExecOptions,
        partitions: Option<Arc<PartitionMap>>,
    ) -> Arc<Self> {
        let n = plan.nodes.len();
        let (shuffle_tx, shuffle_rx) = Self::build_meshes(&plan, options.channel_capacity.max(1));
        let cancel = CancelToken::new();
        if let Some(deadline) = options.deadline {
            cancel.set_deadline(std::time::Instant::now() + deadline);
        }
        Arc::new(ExecContext {
            hub: MetricsHub::with_trace(n, options.trace_level),
            taps: (0..n).map(|_| FilterTap::new()).collect(),
            plan,
            options,
            partitions,
            cancel,
            errors: Mutex::new([None, None, None]),
            threads: ThreadLedger::default(),
            collectors: Mutex::new(FxHashMap::default()),
            shuffle_tx: Mutex::new(shuffle_tx),
            shuffle_rx: Mutex::new(shuffle_rx),
        })
    }

    /// Attribute `message` to `op`: attach the operator's kind name and
    /// (when partition-parallel) its partition.
    pub fn attributed(&self, op: OpId, message: impl Into<String>, class: ExecFailure) -> SipError {
        SipError::exec_at(
            message,
            op.0,
            self.plan.node(op).kind.name(),
            self.partitions.as_ref().and_then(|m| m.partition(op)),
            class,
        )
    }

    /// Record a failure and trip the cancellation token. The first error
    /// of each rank is kept; ranks order errors by how close they are to
    /// the cause:
    ///
    /// 1. Root causes (panics, operator errors, stalls, anything
    ///    non-`ExecAt`). A consumer can see its input channel die
    ///    *before* the failing producer's wrapper records the panic; the
    ///    query error must name the panic, not the hangup.
    /// 2. Cancellations (deadline, explicit cancel, or the token tripped
    ///    by a root cause). An operator that observes the token exits and
    ///    drops its output channel before its wrapper records the
    ///    `Cancelled` error, so on a busy machine its consumer routinely
    ///    records a disconnect first; the query error must still say
    ///    "deadline exceeded".
    /// 3. Disconnects: pure symptoms, reported only when nothing else was.
    pub fn fail(&self, e: SipError) {
        let reason = e.to_string();
        let rank = match e.exec_class() {
            Some(ExecFailure::Cancelled) => 1,
            Some(ExecFailure::Disconnect) => 2,
            _ => 0,
        };
        self.errors.lock()[rank].get_or_insert(e);
        self.cancel.cancel(reason);
    }

    /// The error this run should report, if any: the first error of the
    /// highest rank recorded (see [`ExecContext::fail`]).
    pub fn take_error(&self) -> Option<SipError> {
        self.errors.lock().iter_mut().find_map(Option::take)
    }

    /// Per-batch cancellation check for operator loops: returns an
    /// attributed `Cancelled` error once the shared token has tripped.
    pub fn check_cancel(&self, op: OpId) -> sip_common::Result<()> {
        if self.cancel.is_cancelled() {
            let reason = self
                .cancel
                .reason()
                .unwrap_or_else(|| "query cancelled".into());
            return Err(self.attributed(op, reason, ExecFailure::Cancelled));
        }
        Ok(())
    }

    /// The attributed error for an input channel that disconnected
    /// without a clean `Msg::Eof` — the upstream operator died.
    pub fn disconnect_err(&self, op: OpId) -> SipError {
        self.attributed(
            op,
            "input channel closed before Eof (upstream operator died)",
            ExecFailure::Disconnect,
        )
    }

    /// Arm `op`'s injected fault, if the options' [`FaultPlan`] targets
    /// it. Operators advance the returned state once per incoming batch.
    pub fn arm_fault(&self, op: OpId) -> FaultState {
        if self.options.faults.is_empty() {
            return FaultState::default();
        }
        let kind_name = self.plan.node(op).kind.name();
        self.options.faults.arm(op.0, kind_name)
    }

    /// Materialize every shuffle mesh in the plan as a `writers × dop`
    /// grid of bounded channels — one dedicated channel per (writer,
    /// reader) edge, so each edge carries its own backpressure window and
    /// a slow reader only ever stalls the writers actually sending to it.
    fn build_meshes(
        plan: &PhysPlan,
        capacity: usize,
    ) -> (MeshEndpoints<Sender<Msg>>, MeshEndpoints<Receiver<Msg>>) {
        let mut txs: MeshEndpoints<Sender<Msg>> = FxHashMap::default();
        // Receivers are tagged with their writer index so each reader's
        // list can be sorted into writer order before handoff.
        let mut rxs: MeshEndpoints<(u32, Receiver<Msg>)> = FxHashMap::default();
        for node in &plan.nodes {
            if let PhysKind::ShuffleWrite {
                mesh, writer, dop, ..
            } = node.kind
            {
                let mut per_partition = Vec::with_capacity(dop as usize);
                for p in 0..dop {
                    let (tx, rx) = bounded(capacity);
                    per_partition.push(tx);
                    rxs.entry((mesh, p)).or_default().push((writer, rx));
                }
                txs.insert((mesh, writer), per_partition);
            }
        }
        let rxs = rxs
            .into_iter()
            .map(|(k, mut v)| {
                v.sort_by_key(|&(w, _)| w);
                (k, v.into_iter().map(|(_, rx)| rx).collect())
            })
            .collect();
        (txs, rxs)
    }

    /// Claim a shuffle writer's mesh senders (one per consumer partition).
    pub(crate) fn take_shuffle_senders(&self, mesh: u32, writer: u32) -> Option<Vec<Sender<Msg>>> {
        self.shuffle_tx.lock().remove(&(mesh, writer))
    }

    /// Claim a shuffle reader's mesh receivers (one per writer).
    pub(crate) fn take_shuffle_receivers(
        &self,
        mesh: u32,
        partition: u32,
    ) -> Option<Vec<Receiver<Msg>>> {
        self.shuffle_rx.lock().remove(&(mesh, partition))
    }

    /// The output layout of an operator.
    pub fn layout(&self, op: OpId) -> &[AttrId] {
        &self.plan.node(op).layout
    }

    /// Inject a semijoin filter at `op`'s output. Counts toward
    /// `filters_injected`.
    pub fn inject_filter(&self, op: OpId, filter: InjectedFilter, policy: MergePolicy) {
        self.taps[op.index()].inject(filter, policy);
        self.hub.filters_injected.fetch_add(1, Ordering::Relaxed);
    }

    /// Install a per-input row collector (controllers call this from
    /// `on_query_start`; later installs are ignored by operators already
    /// past startup).
    pub fn install_collector(&self, op: OpId, input: usize, c: Box<dyn RowCollector>) {
        self.collectors.lock().insert((op.0, input), c);
    }

    /// Used by operator threads to claim their collectors.
    pub(crate) fn take_collector(&self, op: OpId, input: usize) -> Option<Box<dyn RowCollector>> {
        self.collectors.lock().remove(&(op.0, input))
    }

    /// A thread-local span tracer for `op`, tagged with the partition the
    /// operator runs in (when this context executes an expanded plan).
    pub fn tracer(&self, op: OpId) -> OpTracer {
        let partition = self.partitions.as_ref().and_then(|m| m.partition(op));
        self.hub.trace.tracer(op.0, partition)
    }

    /// Freeze this run's metrics: merge the flushed thread traces
    /// ([`MetricsHub::finish_with`]) and collect per-filter ROI from the
    /// taps. Uses the explicit cancel flag (not the self-arming deadline
    /// check), so a query whose final Eof drained just past its deadline
    /// without any thread observing the expiry still freezes as a clean,
    /// complete run.
    pub fn finish_metrics(&self, wall_time: Duration, rows_out: u64) -> ExecMetrics {
        let mut metrics = self
            .hub
            .finish_with(wall_time, rows_out, self.cancel.cancelled_flag());
        for (i, tap) in self.taps.iter().enumerate() {
            for f in tap.snapshot().iter() {
                metrics.filter_stats.push(FilterStat {
                    site: OpId(i as u32),
                    label: f.label.clone(),
                    probed: f.probed.load(Ordering::Relaxed),
                    dropped: f.dropped.load(Ordering::Relaxed),
                    keys: f.set.n_keys(),
                    bytes: f.set.size_bytes() as u64,
                });
            }
        }
        metrics
    }
}

impl std::fmt::Debug for ExecContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("nodes", &self.plan.nodes.len())
            .field("taps", &self.taps.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn delay_lookup_prefers_binding() {
        let opts = ExecOptions::default()
            .with_delay("partsupp", DelayModel::paper_delayed())
            .with_delay("ps2", DelayModel::initial_only(Duration::from_millis(1)))
            .with_remote("part", LinkSpec::lan_100mbps());
        assert_eq!(
            opts.source_for("ps2", "partsupp"),
            Some(&SourceModel::Delayed(DelayModel::initial_only(
                Duration::from_millis(1)
            )))
        );
        assert_eq!(
            opts.source_for("ps1", "partsupp"),
            Some(&SourceModel::Delayed(DelayModel::paper_delayed()))
        );
        assert_eq!(
            opts.source_for("p", "part"),
            Some(&SourceModel::Remote(LinkSpec::lan_100mbps()))
        );
        assert_eq!(opts.source_for("l", "lineitem"), None);
    }

    #[test]
    fn defaults_are_sane() {
        let opts = ExecOptions::default();
        assert!(opts.validate().is_ok());
        assert!(opts.batch_size >= 64);
        assert!(opts.channel_capacity >= 1);
        assert!(opts.collect_rows);
    }

    #[test]
    fn validated_rejects_degenerate_sizes() {
        assert!(ExecOptions::validated(1024, 16).is_ok());
        assert!(ExecOptions::validated(1, 1).is_ok());
        let e = ExecOptions::validated(0, 16).unwrap_err();
        assert_eq!(e.layer(), "config");
        let e = ExecOptions::validated(1024, 0).unwrap_err();
        assert_eq!(e.layer(), "config");
    }
}
