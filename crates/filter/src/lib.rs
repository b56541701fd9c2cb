#![warn(missing_docs)]
//! # sip-filter
//!
//! Summary structures used as *AIP sets* (§III, §V of the paper): Bloom
//! filters with configurable false-positive rate and hash-function count,
//! exact hash sets with the paper's per-bucket discard safety valve, and an
//! optional min/max range summary (the §III-C extension).
//!
//! All structures operate on stable 64-bit key digests produced by
//! `sip_common::hash::fx_hash64` / `Row::key_hash`, so a filter built on one
//! thread or site probes identically anywhere.

pub mod aipset;
pub mod bloom;
pub mod hashset;
pub mod minmax;

pub use aipset::{AipSet, AipSetBuilder, AipSetKind};
pub use bloom::BloomFilter;
pub use hashset::BucketedKeySet;
pub use minmax::MinMaxSummary;
