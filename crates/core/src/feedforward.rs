//! Greedy Feed-Forward Filtering (§IV-A).
//!
//! "Our first algorithm, which requires minimal runtime decision-making and
//! no runtime statistics collection, optimistically creates and uses every
//! potentially useful AIP set."
//!
//! Each stateful-operator input with AIP candidates gets a *working copy*
//! AIP set, built incrementally as tuples are admitted. When the input
//! completes, the set takes the publish path shared with cost-based AIP
//! (`publish.rs`), which injects it as a semijoin filter at every live site
//! outside the producing subtree. A serial set whose prospective users have
//! all finished is discarded instead.

use crate::candidates::{AipSource, Candidates};
use crate::config::AipConfig;
use crate::publish::Publisher;
use crate::registry::AipRegistry;
use sip_common::{DigestBuffer, FxHashMap, OpId, Row};
use sip_engine::{CompletionEvent, ExecContext, ExecMonitor, RowCollector};
use sip_filter::AipSetBuilder;
use sip_optimizer::Estimator;
use sip_plan::EqClasses;
use std::sync::Arc;

/// The feed-forward AIP controller. Install as the engine monitor.
pub struct FeedForward {
    config: AipConfig,
    publish: Arc<Publisher>,
}

impl FeedForward {
    /// Build a controller for a query with equality classes `eq`.
    pub fn new(eq: EqClasses, config: AipConfig) -> Arc<Self> {
        Arc::new(FeedForward {
            config,
            publish: Arc::new(Publisher::new("ff", eq)),
        })
    }

    /// The registry (for inspection / the Fig. 2 reproduction).
    pub fn registry(&self) -> Arc<AipRegistry> {
        Arc::clone(&self.publish.registry)
    }

    /// The computed candidate index (available after query start).
    pub fn candidates(&self) -> Option<Arc<Candidates>> {
        self.publish.candidates()
    }
}

/// One incrementally-built working set.
struct WorkingEntry {
    source: AipSource,
    builder: AipSetBuilder,
}

/// Per-(op, input) collector feeding all working sets for that input.
struct FfCollector {
    publish: Arc<Publisher>,
    entries: Vec<WorkingEntry>,
    /// Reusable digest scratch for batch admits whose source column is not
    /// the host operator's own key column (one hash pass per batch per
    /// such entry; the common case reuses the operator's pass instead).
    scratch: DigestBuffer,
}

impl RowCollector for FfCollector {
    fn admit(&mut self, row: &Row) {
        for e in &mut self.entries {
            let pos = [e.source.pos];
            e.builder.insert_at(row.key_hash(&pos), row.values(), &pos);
        }
    }

    /// The batch working-copy build (§IV-A at batch granularity): when the
    /// entry's source column *is* the operator's key column — the common
    /// AIP shape, e.g. an aggregate's group key feeding a partkey filter —
    /// the operator's own digest pass is consumed as-is, so admitting a
    /// batch re-hashes nothing; otherwise one digest pass per entry per
    /// batch replaces a hash + `Value` clone per row.
    fn admit_batch(&mut self, rows: &[Row], key_positions: &[usize], digests: &DigestBuffer) {
        let FfCollector {
            entries, scratch, ..
        } = self;
        for e in entries {
            let pos = [e.source.pos];
            if key_positions == pos {
                e.builder.extend_batch(rows, &pos, digests);
            } else {
                scratch.compute(rows, &pos);
                e.builder.extend_batch(rows, &pos, scratch);
            }
        }
    }

    fn finish(&mut self, ctx: &Arc<ExecContext>) {
        let Some(cands) = self.publish.candidates() else {
            return;
        };
        for e in self.entries.drain(..) {
            let users = self.publish.live_users(ctx, &cands, &e.source);
            // "all other operators check if there is still interest in the
            // AIP sets they are computing; if not, they discard their local
            // AIP sets." A partition's set is kept regardless: the
            // OR-merge needs every partition of its producer.
            let partition = ctx
                .partitions
                .as_ref()
                .and_then(|m| m.partition(e.source.op));
            if partition.is_none() && users.is_empty() {
                continue;
            }
            let t_build = std::time::Instant::now();
            let set = Arc::new(e.builder.finish());
            self.publish
                .publish(ctx, &cands, &e.source, set, t_build, &users);
        }
    }
}

impl ExecMonitor for FeedForward {
    fn on_query_start(&self, ctx: &Arc<ExecContext>) {
        let plan = &ctx.plan;
        let cands = self.publish.start(ctx);
        // Static estimates size the Bloom filters; feed-forward collects no
        // runtime statistics (§IV-A).
        let est = Estimator::estimate(plan);
        // Group sources by (op, input) into collectors.
        let mut grouped: FxHashMap<(u32, usize), Vec<AipSource>> = FxHashMap::default();
        for cc in cands.classes.values() {
            for s in &cc.sources {
                grouped
                    .entry((s.op.0, s.input))
                    .or_default()
                    .push(s.clone());
            }
        }
        for ((op, input), sources) in grouped {
            let op = OpId(op);
            let child = plan.node(op).inputs[input];
            let expected = (est.node(child).rows as usize).max(self.config.min_expected_keys);
            let entries: Vec<WorkingEntry> = sources
                .into_iter()
                .map(|source| WorkingEntry {
                    builder: AipSetBuilder::new(
                        self.config.set_kind,
                        expected,
                        self.config.fpr,
                        self.config.n_hashes,
                    ),
                    source,
                })
                .collect();
            ctx.install_collector(
                op,
                input,
                Box::new(FfCollector {
                    publish: Arc::clone(&self.publish),
                    entries,
                    scratch: DigestBuffer::default(),
                }),
            );
        }
    }

    fn on_input_complete(&self, ctx: &Arc<ExecContext>, ev: &CompletionEvent<'_>) {
        // Feed-forward consumes completions via collectors; here only the
        // registry's interest accounting runs.
        self.publish.input_complete(ctx, ev);
    }
}
