#![warn(missing_docs)]
//! # sip-core — Adaptive Information Passing
//!
//! The paper's primary contribution (Ives & Taylor, ICDE 2008): runtime
//! sideways information passing for push-style query plans.
//!
//! When a subexpression of an executing bushy plan completes, its result is
//! already buffered inside a pipelined hash join or hash aggregation. Both
//! algorithms here summarize that state as an *AIP set* (Bloom filter or
//! hash set over the correlated key) and inject it as a semijoin filter
//! into other, transitively-equated parts of the plan — across blocking
//! operators — pruning tuples that provably cannot contribute to the
//! result:
//!
//! * [`FeedForward`] (§IV-A) — zero-statistics, optimistic: every candidate
//!   set is built incrementally and used.
//! * [`CostBased`] (§IV-B) — an AIP Manager re-invokes the optimizer's cost
//!   estimator on each completion event (`ESTIMATEBENEFIT`, Fig. 4) and
//!   builds only provably-beneficial sets.
//!
//! The two are policies over one publish path: each decides only *when* a
//! set is built and *whether*; the shared path publishes it to the
//! [`AipRegistry`], injects it (partition-scoped when a partition built
//! it) and OR-merges a producer's partitions into one plan-wide filter.
//!
//! [`run_query`] executes any query under `Baseline` / `Magic` /
//! `FeedForward` / `CostBased`, the four strategies of §VI;
//! [`QuerySpec::monitor`] builds the matching execution monitor.

pub mod candidates;
pub mod config;
pub mod costbased;
pub mod feedforward;
mod publish;
pub mod registry;
pub mod runner;

pub use candidates::{AipSource, AipUser, Candidates, ClassCandidates};
pub use config::AipConfig;
pub use costbased::{CbStats, CostBased};
pub use feedforward::FeedForward;
pub use registry::AipRegistry;
pub use runner::{run_query, run_query_dop, QuerySpec, Strategy};
