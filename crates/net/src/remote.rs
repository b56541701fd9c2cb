//! Distributed execution: remote scans over simulated links, with
//! AIP-filter shipping.

use crate::link::LinkSpec;
use crossbeam::channel::bounded;
use sip_common::error::ExecFailure;
use sip_common::retry::{RetryPolicy, RetryState};
use sip_common::trace::{FilterEvent, FilterEventKind};
use sip_common::{OpId, Result, SipError};
use sip_core::{AipConfig, QuerySpec, Strategy};
use sip_engine::{
    execute_ctx, ExecContext, ExecOptions, LinkFaultKind, Msg, PhysKind, PhysPlan, QueryOutput,
    TapKernel,
};
use sip_optimizer::CostModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the distributed setting.
#[derive(Clone, Debug)]
pub struct RemoteConfig {
    /// Tables served by the remote site (scans of these become remote).
    pub remote_tables: Vec<String>,
    /// The master ↔ site link.
    pub link: LinkSpec,
    /// Reconnect policy when the link drops (an injected
    /// [`sip_engine::LinkFault`]): exponential backoff between reconnect
    /// attempts (the feeder also re-pays the link's connection latency
    /// on each), giving up and failing the query when the budget is
    /// spent. Shares [`sip_common::retry::RetryPolicy`] with the
    /// engine's recovery layer.
    pub retry: RetryPolicy,
}

impl RemoteConfig {
    /// One remote table over a link, with a small default retry budget
    /// (three reconnects, 5ms base backoff).
    pub fn new(table: impl Into<String>, link: LinkSpec) -> Self {
        RemoteConfig {
            remote_tables: vec![table.into()],
            link,
            retry: RetryPolicy {
                base_backoff: std::time::Duration::from_millis(5),
                ..RetryPolicy::with_attempts(4)
            },
        }
    }
}

/// Network counters for one run.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Row payload bytes that actually crossed the link.
    pub row_bytes: AtomicU64,
    /// Rows that crossed the link.
    pub rows_shipped: AtomicU64,
    /// Rows pruned at the remote site by shipped filters.
    pub rows_pruned_remote: AtomicU64,
    /// Filter payload bytes shipped master → site.
    pub filter_bytes: AtomicU64,
    /// Filters shipped.
    pub filters_shipped: AtomicU64,
    /// Link failures observed (injected drops and hangs).
    pub link_failures: AtomicU64,
    /// Reconnect attempts made after link drops.
    pub retries: AtomicU64,
}

impl NetStats {
    /// Total bytes over the link in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.row_bytes.load(Ordering::Relaxed) + self.filter_bytes.load(Ordering::Relaxed)
    }

    /// An owned copy of the current counter values. Unlike
    /// `Arc::try_unwrap(..).unwrap_or_default()` — which silently zeroes
    /// every counter whenever any clone of the handle is still alive —
    /// this is correct regardless of who else holds the stats.
    pub fn snapshot(&self) -> NetStats {
        let copy = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
        NetStats {
            row_bytes: copy(&self.row_bytes),
            rows_shipped: copy(&self.rows_shipped),
            rows_pruned_remote: copy(&self.rows_pruned_remote),
            filter_bytes: copy(&self.filter_bytes),
            filters_shipped: copy(&self.filters_shipped),
            link_failures: copy(&self.link_failures),
            retries: copy(&self.retries),
        }
    }
}

/// Result of a distributed run.
#[derive(Debug)]
pub struct DistributedRun {
    /// The query output (rows + engine metrics).
    pub output: QueryOutput,
    /// Link counters.
    pub net: NetStats,
}

/// Execute `spec` with the configured tables fetched from a simulated
/// remote site, under any strategy. Cost-based AIP prices filter shipping
/// at the link's cost-per-byte, as in §V-B.
pub fn run_distributed(
    spec: &QuerySpec,
    catalog: &sip_data::Catalog,
    strategy: Strategy,
    options: ExecOptions,
    aip: &AipConfig,
    remote: &RemoteConfig,
) -> Result<DistributedRun> {
    let mut phys = spec.lower(catalog, strategy)?;
    let feeds = externalize_remote_scans(&mut phys, &remote.remote_tables)?;
    if feeds.is_empty() {
        return Err(SipError::Net(format!(
            "no scans of {:?} found in the plan",
            remote.remote_tables
        )));
    }
    let phys = Arc::new(phys);

    // Wire an external channel per remote scan.
    let mut receivers = Vec::new();
    for feed in &feeds {
        let (tx, rx) = bounded::<Msg>(options.channel_capacity.max(1));
        options.external_inputs.lock().insert(feed.op.0, rx);
        receivers.push((feed.clone(), tx));
    }
    let ctx = ExecContext::new(Arc::clone(&phys), options);
    let stats = Arc::new(NetStats::default());

    // Site feeder threads: stream the table over the simulated link,
    // honoring filters shipped to the site.
    let mut feeder_handles = Vec::new();
    for (feed, tx) in receivers {
        let ctx = Arc::clone(&ctx);
        let stats = Arc::clone(&stats);
        // Per-feeder reseed: independent jitter streams, still
        // deterministic for a given plan.
        let retry = remote.retry.clone().reseeded(u64::from(feed.op.0));
        let link = remote.link;
        feeder_handles.push(std::thread::spawn(move || {
            feed_remote_scan(&ctx, &stats, feed, link, retry, tx);
        }));
    }

    let aip = AipConfig {
        ship_cost_per_byte: remote.link.cost_per_byte(),
        ..aip.clone()
    };
    let cost = CostModel::default().with_bandwidth_mbps(remote.link.bandwidth_mbps);
    let monitor = spec.monitor(strategy, &aip, cost);
    // Join the feeders even when the query failed (on the failure path
    // their channel receivers are gone, so sends fail and they return
    // promptly) — no thread outlives the run.
    let result = execute_ctx(Arc::clone(&ctx), monitor);
    let mut feeder_panicked = false;
    for h in feeder_handles {
        if h.join().is_err() {
            feeder_panicked = true;
        }
    }
    let net = stats.snapshot();
    let output = result?;
    if feeder_panicked {
        // The engine saw a clean stream (or the disconnect error above
        // took the early return) — a panicked feeder must still fail the
        // run rather than vanish into a discarded join result.
        return Err(SipError::Net("remote feeder thread panicked".into()));
    }
    Ok(DistributedRun { output, net })
}

/// One externalized scan: the node to feed plus what to read.
#[derive(Clone, Debug)]
struct RemoteFeed {
    op: OpId,
    table: Arc<sip_data::Table>,
    cols: Vec<usize>,
}

/// Replace scans of remote tables with `ExternalSource` nodes, returning
/// feed descriptors.
fn externalize_remote_scans(plan: &mut PhysPlan, tables: &[String]) -> Result<Vec<RemoteFeed>> {
    let mut feeds = Vec::new();
    for node in plan.nodes.iter_mut() {
        if let PhysKind::Scan {
            table,
            cols,
            binding,
            ..
        } = &node.kind
        {
            if tables.iter().any(|t| t == table.name()) {
                feeds.push(RemoteFeed {
                    op: node.id,
                    table: Arc::clone(table),
                    cols: cols.clone(),
                });
                node.kind = PhysKind::ExternalSource {
                    label: format!("remote:{}@{binding}", table.name()),
                };
            }
        }
    }
    Ok(feeds)
}

/// The remote site: scan, apply shipped filters, pay the link, send.
///
/// Shipped filters run as the same batch kernel the engine's taps use
/// ([`sip_engine::TapKernel`]): one digest pass per batch per probe-column
/// set, selection-vector survivor gathers, per-filter counters published
/// once per batch — the remote site is no longer the last per-row
/// `admits` loop in the system.
///
/// The site reads the table's columnar storage directly: each chunk is a
/// metadata-only slice + column selection, filter probes run over the
/// typed column vectors, and the batch crosses the link columnar. Link
/// accounting uses [`ColumnarBatch::size_bytes`](sip_common::ColumnarBatch::size_bytes),
/// which is O(columns) per batch (cached per-column totals) instead of the
/// row path's O(rows × columns) per-value walk.
fn feed_remote_scan(
    ctx: &Arc<ExecContext>,
    stats: &NetStats,
    feed: RemoteFeed,
    link: LinkSpec,
    retry: RetryPolicy,
    tx: crossbeam::channel::Sender<Msg>,
) {
    let tap = &ctx.taps[feed.op.index()];
    let mut known_filters = 0usize;
    let mut kernel = TapKernel::new();
    // Injected link fault, if any. `acked` counts batches the master has
    // accepted (a bounded send that returned Ok *is* the ack); a dropped
    // link re-feeds from the first unacked batch, which the feeder still
    // holds — no replay buffer needed. The reconnect budget spans the
    // whole stream (one flaky link, however many drops).
    let fault = ctx.options.faults.link.clone();
    let mut fault_remaining = fault.as_ref().map_or(0, |f| f.fail_times);
    let mut state = RetryState::new(retry);
    let mut acked = 0u64;
    // Connection setup latency (cancellable: a feeder must not hold a
    // failed or deadline-blown query open for its full simulated delay).
    if !ctx.cancel.sleep_cancellable(link.latency) {
        return;
    }
    let batch_size = ctx.options.batch_size;
    let source = feed.table.columns();
    let total = source.len();
    let mut offset = 0usize;
    while offset < total {
        let n = batch_size.min(total - offset);
        // Poll for newly shipped filters; pay their transfer cost once.
        let filters = tap.snapshot();
        if filters.len() > known_filters {
            for f in filters.iter().skip(known_filters) {
                let bytes = f.set.size_bytes() as u64;
                stats.filter_bytes.fetch_add(bytes, Ordering::Relaxed);
                stats.filters_shipped.fetch_add(1, Ordering::Relaxed);
                ctx.hub.trace.filter_event(FilterEvent {
                    kind: FilterEventKind::Shipped,
                    site: feed.op.0,
                    label: f.label.clone(),
                    t_nanos: ctx.hub.trace.now(),
                    build_nanos: 0,
                    keys: f.set.n_keys(),
                    bytes,
                });
                if !ctx
                    .cancel
                    .sleep_cancellable(link.transfer_time(bytes) + link.latency)
                {
                    return;
                }
            }
            known_filters = filters.len();
        }
        // Remote-side projection + batch filtering (the Bloomjoin effect:
        // pruned rows never cross the link).
        let mut batch = source.slice(offset, n).select_columns(&feed.cols);
        offset += n;
        if !filters.is_empty() {
            kernel.begin(batch.len());
            let (_, dropped) = kernel.probe_chain_cols(&filters, &batch);
            if dropped > 0 {
                stats
                    .rows_pruned_remote
                    .fetch_add(dropped, Ordering::Relaxed);
                batch = batch.gather(kernel.sel().as_slice());
            }
        }
        if batch.is_empty() {
            continue;
        }
        // Deliver the batch, riding out injected link faults with bounded
        // retry + backoff.
        loop {
            if ctx.cancel.is_cancelled() {
                return;
            }
            if let Some(f) = &fault {
                if acked >= f.after_batches && fault_remaining > 0 {
                    fault_remaining -= 1;
                    stats.link_failures.fetch_add(1, Ordering::Relaxed);
                    match f.kind {
                        LinkFaultKind::Drop => match state.again(ExecFailure::Error) {
                            Some(backoff) => {
                                stats.retries.fetch_add(1, Ordering::Relaxed);
                                // Backoff, then re-pay the connection
                                // latency and re-send from the first
                                // unacked batch.
                                if !ctx.cancel.sleep_cancellable(backoff)
                                    || !ctx.cancel.sleep_cancellable(link.latency)
                                {
                                    return;
                                }
                                continue;
                            }
                            None => {
                                // Out of budget: record the root cause and
                                // hang up *without* Eof — the consumer's
                                // disconnect error is the symptom; this
                                // Net error (naming the exhausted policy)
                                // is what the query reports.
                                let reconnects = state.attempt() - 1;
                                ctx.fail(state.give_up(SipError::Net(format!(
                                    "remote link for {} dropped; gave up after {reconnects} \
                                     reconnect attempts",
                                    feed.table.name()
                                ))));
                                return;
                            }
                        },
                        LinkFaultKind::Hang(d) => {
                            if !ctx.cancel.sleep_cancellable(d) {
                                return;
                            }
                        }
                    }
                }
            }
            let bytes = batch.size_bytes() as u64;
            if !ctx.cancel.sleep_cancellable(link.transfer_time(bytes)) {
                return;
            }
            stats.row_bytes.fetch_add(bytes, Ordering::Relaxed);
            stats
                .rows_shipped
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            if tx.send(Msg::Cols(batch)).is_err() {
                return; // master hung up (query failed or cancelled)
            }
            acked += 1;
            break;
        }
    }
    let _ = tx.send(Msg::Eof);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_core::run_query;
    use sip_data::{generate, TpchConfig};
    use sip_engine::canonical;
    use sip_queries::build_query;

    fn catalog() -> sip_data::Catalog {
        generate(&TpchConfig::uniform(0.004)).unwrap()
    }

    fn fast_link() -> LinkSpec {
        LinkSpec {
            bandwidth_mbps: 2_000.0,
            latency: std::time::Duration::from_micros(200),
        }
    }

    #[test]
    fn distributed_matches_local_results() {
        let c = catalog();
        let spec = build_query("Q3A", &c).unwrap();
        let local = run_query(
            &spec,
            &c,
            Strategy::Baseline,
            ExecOptions::default(),
            &AipConfig::paper(),
        )
        .unwrap();
        for strategy in [
            Strategy::Baseline,
            Strategy::FeedForward,
            Strategy::CostBased,
        ] {
            let run = run_distributed(
                &spec,
                &c,
                strategy,
                ExecOptions::default(),
                &AipConfig::paper(),
                &RemoteConfig::new("partsupp", fast_link()),
            )
            .unwrap();
            assert_eq!(
                canonical(&run.output.rows),
                canonical(&local.rows),
                "{strategy} distributed diverged"
            );
            assert!(run.net.rows_shipped.load(Ordering::Relaxed) > 0);
        }
    }

    #[test]
    fn filters_reduce_shipped_bytes() {
        // Delay-free CB on Q3A: the local part/supplier side completes fast,
        // a partkey filter ships to the site, and remote pruning cuts row
        // bytes relative to baseline.
        let c = catalog();
        let spec = build_query("Q3A", &c).unwrap();
        let cfg = RemoteConfig::new("partsupp", LinkSpec::lan_100mbps());
        let base = run_distributed(
            &spec,
            &c,
            Strategy::Baseline,
            ExecOptions::default(),
            &AipConfig::paper(),
            &cfg,
        )
        .unwrap();
        let ff = run_distributed(
            &spec,
            &c,
            Strategy::FeedForward,
            ExecOptions::default(),
            &AipConfig::paper(),
            &cfg,
        )
        .unwrap();
        let base_bytes = base.net.row_bytes.load(Ordering::Relaxed);
        let ff_bytes = ff.net.row_bytes.load(Ordering::Relaxed);
        assert!(
            ff_bytes < base_bytes,
            "FF shipped {ff_bytes} vs baseline {base_bytes}"
        );
        assert!(ff.net.rows_pruned_remote.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn missing_remote_table_is_an_error() {
        let c = catalog();
        let spec = build_query("Q4A", &c).unwrap();
        let err = run_distributed(
            &spec,
            &c,
            Strategy::Baseline,
            ExecOptions::default(),
            &AipConfig::paper(),
            &RemoteConfig::new("part_does_not_appear", fast_link()),
        );
        assert!(err.is_err());
    }

    #[test]
    fn dropped_link_retries_within_budget_and_recovers() {
        use sip_engine::{FaultPlan, LinkFault};
        let c = catalog();
        let spec = build_query("Q3A", &c).unwrap();
        let local = run_query(
            &spec,
            &c,
            Strategy::Baseline,
            ExecOptions::default(),
            &AipConfig::paper(),
        )
        .unwrap();
        // Two drops after the first acked batch, against the default
        // budget of three reconnects: the feeder re-sends the unacked
        // batch and the query completes exactly.
        let opts =
            ExecOptions::default().with_faults(FaultPlan::none().with_link_fault(LinkFault {
                after_batches: 1,
                kind: LinkFaultKind::Drop,
                fail_times: 2,
            }));
        let run = run_distributed(
            &spec,
            &c,
            Strategy::Baseline,
            opts,
            &AipConfig::paper(),
            &RemoteConfig::new("partsupp", fast_link()),
        )
        .unwrap();
        assert_eq!(
            canonical(&run.output.rows),
            canonical(&local.rows),
            "retried run diverged from local"
        );
        // Every feeder of the plan fires its own copy of the fault: two
        // drops each, and every drop is ridden out by exactly one
        // reconnect.
        let failures = run.net.link_failures.load(Ordering::Relaxed);
        let retries = run.net.retries.load(Ordering::Relaxed);
        assert!(failures >= 2, "fault never fired (failures {failures})");
        assert_eq!(retries, failures, "each drop must cost one reconnect");
        // Re-sends must not double-count shipped rows: the ack counter
        // only advances on successful delivery.
        assert!(run.net.rows_shipped.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn permanently_dead_link_fails_with_net_error_after_retries() {
        use sip_engine::{FaultPlan, LinkFault};
        let c = catalog();
        let spec = build_query("Q3A", &c).unwrap();
        let opts =
            ExecOptions::default().with_faults(FaultPlan::none().with_link_fault(LinkFault {
                after_batches: 0,
                kind: LinkFaultKind::Drop,
                fail_times: u32::MAX,
            }));
        let err = run_distributed(
            &spec,
            &c,
            Strategy::Baseline,
            opts,
            &AipConfig::paper(),
            &RemoteConfig::new("partsupp", fast_link()),
        )
        .unwrap_err();
        // The root-cause Net error must win over the downstream
        // disconnect symptom.
        assert_eq!(err.layer(), "net", "wrong layer for {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("gave up") && msg.contains("partsupp"),
            "error must name the dead link and the exhausted budget: {msg}"
        );
        // The shared retry machinery marks the error exhausted, so an
        // outer recovery scope never re-spends its own budget on it.
        assert!(
            sip_common::retry::is_exhausted(&err),
            "link exhaustion must carry the RetryPolicy marker: {msg}"
        );
    }

    #[test]
    fn hanging_link_recovers_without_retries() {
        use sip_engine::{FaultPlan, LinkFault};
        let c = catalog();
        let spec = build_query("Q3A", &c).unwrap();
        let local = run_query(
            &spec,
            &c,
            Strategy::Baseline,
            ExecOptions::default(),
            &AipConfig::paper(),
        )
        .unwrap();
        let opts =
            ExecOptions::default().with_faults(FaultPlan::none().with_link_fault(LinkFault {
                after_batches: 1,
                kind: LinkFaultKind::Hang(std::time::Duration::from_millis(2)),
                fail_times: 2,
            }));
        let run = run_distributed(
            &spec,
            &c,
            Strategy::Baseline,
            opts,
            &AipConfig::paper(),
            &RemoteConfig::new("partsupp", fast_link()),
        )
        .unwrap();
        assert_eq!(canonical(&run.output.rows), canonical(&local.rows));
        // A hang delays delivery but never re-connects.
        assert!(run.net.link_failures.load(Ordering::Relaxed) >= 2);
        assert_eq!(run.net.retries.load(Ordering::Relaxed), 0);
    }
}
