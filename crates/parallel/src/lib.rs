#![warn(missing_docs)]
//! # sip-parallel — partition-parallel execution for the push engine
//!
//! The seed engine runs every operator on exactly one OS thread, so a join
//! can never use more than one core. This crate adds **intra-operator,
//! hash-partition parallelism** on top of the unchanged executor:
//!
//! 1. [`partition_plan`] analyzes a serial [`sip_engine::PhysPlan`] and
//!    expands it into `dop` partition clones. Every stream tracks the
//!    attribute set obeying the partition-hash invariant: scans partition
//!    on their own best join key, joins run per partition when a key pair
//!    is co-aligned, and — the piece that keeps multi-class plans (TPC-H
//!    5/9 join chains) parallel end to end — a join whose inputs are
//!    partitioned on *different* classes repartitions through an
//!    all-to-all **shuffle mesh** ([`sip_engine::PhysKind::ShuffleWrite`] /
//!    [`sip_engine::PhysKind::ShuffleRead`]) instead of collapsing to a
//!    serial region. Replicable subtrees are broadcast (small) or scanned
//!    once and distributed over a `1 × dop` mesh (large); the cost model
//!    ([`sip_optimizer::CostModel::repartition_wins`]) arbitrates
//!    repartition vs. the serial fallback.
//! 2. [`PartitionedExec`] runs the expanded plan on the ordinary threaded
//!    executor: every clone is just an operator, so each partition gets its
//!    own thread, its own metrics slot, and — crucially for AIP — its own
//!    `FilterTap`.
//! 3. The [`sip_engine::PartitionMap`] returned alongside the plan tells
//!    AIP controllers which clone belongs to which partition *and which
//!    partitioning class governs it*, so a filter built from one
//!    partition's completed build side can be injected plan-wide
//!    immediately under a [`sip_engine::FilterScope`] — including at sites
//!    on the far side of a shuffle, whose rows the scope check routes —
//!    and OR-merged (`AipSet::union`) into an unscoped plan-wide filter
//!    once every partition has reported.
//!
//! Shuffled joins route by key hash only. A hot key lands on one
//! partition; the cost model prices that skew
//! ([`sip_optimizer::CostModel::repartition_wins_skewed`]) when it weighs
//! a shuffle against the serial fallback, but no row is ever routed
//! outside the hash invariant.
//!
//! Expansion is *correctness-conservative*: joins partition only when
//! their keys provably co-locate matching rows (shuffling when they do
//! not), aggregates either group by their stream's class, split into
//! partial + final merge, or fall back to a serial aggregate above the
//! merge, and plans that offer no safe parallelism at all are reported as
//! [`PartitionError::NotPartitionable`] so callers can fall back to serial
//! execution.

mod partition;
mod shuffle;

pub mod exec;

pub use exec::PartitionedExec;
pub use partition::{partition_plan, partition_plan_cfg, PartitionError};
pub use shuffle::PartitionConfig;
