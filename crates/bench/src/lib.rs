//! # sip-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§VI). The `repro` binary drives it.
//!
//! Absolute numbers differ from the paper (different hardware, scale
//! factor, and a Rust engine instead of 80 kLoC of C++); the quantities
//! compared are the paper's: wall-clock running time and peak intermediate
//! state per query/strategy pair, plus shipped bytes in the distributed
//! setting.

pub mod figures;
pub mod measure;

pub use figures::{FigureReport, ReportRow};
pub use measure::{measure, ExperimentConfig, Measurement};
