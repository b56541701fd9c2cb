#![warn(missing_docs)]
//! # sip-net
//!
//! Simulated multi-site execution (§V-B's distributed query extensions).
//!
//! A *remote site* serves one or more base tables over a link of configured
//! bandwidth and latency. A remote source is a scan like any other: the
//! engine's scan takes a [`sip_engine::SourceModel::Remote`] from
//! [`sip_engine::ExecOptions::with_remote`] and plays the site end of the
//! link itself, so a distributed run is an ordinary run of the plan under
//! the one whole-run recovery path.
//!
//! AIP enters exactly as the paper describes: "when an AIP filter is
//! estimated to be useful, the AIP Manager requests it from the source,
//! relays it to the target node if necessary, and injects it into the
//! appropriate query plan operator". The AIP managers inject at the remote
//! scan (the lowest operator carrying the correlated attribute); the scan
//! pays the link for the filter's bytes once, then probes every later
//! batch **before** transmission — so, as with a Bloomjoin, pruned tuples
//! never cross the link. The cost-based manager prices that shipment via
//! `sip_core::AipConfig::ship_cost_per_byte`.

pub mod remote;

pub use remote::{run_distributed, DistributedRun, NetStats, RemoteConfig};
pub use sip_engine::LinkSpec;
