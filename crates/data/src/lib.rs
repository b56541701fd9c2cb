#![warn(missing_docs)]
//! # sip-data
//!
//! TPC-H-shaped data substrate: deterministic generators (uniform and
//! Zipf-skewed), in-memory tables with exact column statistics, and the
//! catalog abstraction the optimizer and engine read from.
//!
//! The paper evaluates on 1 GB TPC-H data plus a skewed variant produced by
//! the Microsoft TPC-D generator (Zipf z = 0.5); [`gen::generate`] with
//! [`gen::TpchConfig`] reproduces both shapes at any scale factor.

pub mod gen;
pub mod table;
pub mod text;
pub mod zipf;

pub use gen::{generate, lineitem_schema, orders_schema, TpchConfig};
pub use table::{Catalog, ColumnStats, ForeignKey, Table, TableBuilder, TableMeta};
pub use zipf::Zipf;
