#![warn(missing_docs)]
//! # sip-engine
//!
//! A push-style, multithreaded query execution engine in the mold of the
//! paper's Tukwila substrate (§V): symmetric pipelined hash joins, hash
//! aggregation, bushy plans, one thread per operator with bounded-channel
//! backpressure, per-operator cardinality counters, byte-accurate
//! intermediate-state accounting, delayed and remote source simulation,
//! and — crucially for AIP — runtime-injectable semijoin filter taps plus
//! state views and completion callbacks that controllers (in `sip-core`)
//! consume.
//!
//! Scans are sources with their own loop. Every other operator is written
//! as push callbacks — the producer hands it each batch (`push`), each
//! input's `Eof` (`input_done`), and the end (`close`) — and one input
//! driver owns the receive side for all of them: the select over live
//! inputs, receive tracing, the per-batch fault and cancellation check,
//! the input counters, the rule that a disconnect without `Eof` is an
//! attributed error, and stopping once the downstream has hung up.

pub mod context;
pub mod delay;
pub mod exec;
pub mod fault;
pub mod link;
pub mod metrics;
pub mod monitor;
pub(crate) mod operators;
pub mod oracle;
pub mod physical;
pub mod profile;
pub mod recovery;
pub mod report;
pub mod taps;
#[doc(hidden)]
pub mod testkit;

pub use context::{ExecContext, ExecOptions, Msg, PartitionMap, ThreadLedger};
pub use delay::{DelayModel, SourceModel};
pub use exec::{execute, execute_baseline, execute_ctx, execute_with_recovery, QueryOutput};
pub use fault::{FaultKind, FaultPlan, FaultSpec};
pub use link::LinkSpec;
pub use metrics::{
    ExecMetrics, FilterStat, MetricsHub, OpMetrics, OpMetricsSnapshot, PartitionSnapshot,
};
pub use monitor::{CompletionEvent, ExecMonitor, NoopMonitor, RowCollector, StateView};
pub use oracle::{canonical, execute_oracle};
pub use physical::{lower, BoundAgg, PhysKind, PhysNode, PhysPlan, ScanPartition};
pub use profile::{QueryProfile, PROFILE_SCHEMA};
pub use recovery::run_with_recovery;
pub use report::{explain_analyze, explain_analyze_profiled};
pub use sip_common::trace::TraceLevel;
pub use taps::{FilterScope, FilterTap, InjectedFilter, MergePolicy, TapKernel};
