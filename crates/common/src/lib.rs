#![warn(missing_docs)]
//! # sip-common
//!
//! Foundation types shared by every crate in the SIP (sideways information
//! passing) workspace: scalar [`Value`]s and [`Date`]s, [`Row`]s and
//! [`Batch`]es, [`Schema`]s, strongly-typed identifiers, a fast
//! non-cryptographic hasher, batch kernels ([`SelVec`] selection vectors
//! and [`DigestBuffer`]/[`DigestCache`] key-digest scratch), and the common
//! [`SipError`] type.
//!
//! Nothing in this crate knows about plans, operators, or AIP — it is the
//! vocabulary the rest of the system is written in.

pub mod bytes;
pub mod cancel;
pub mod columnar;
pub mod date;
pub mod error;
pub mod hash;
pub mod ids;
pub mod json;
pub mod kernel;
pub mod retry;
pub mod row;
pub mod schema;
pub mod trace;
pub mod value;

pub use cancel::CancelToken;
pub use columnar::{ColKind, Column, ColumnBuilder, ColumnarBatch};
pub use date::Date;
pub use error::{ExecFailure, Result, SipError};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{AttrId, OpId, SiteId, TableId};
pub use kernel::{DigestBuffer, DigestCache, SelVec};
pub use retry::{RetryPolicy, RetryState};
pub use row::{Batch, Row};
pub use schema::{DataType, Field, Schema};
pub use trace::{
    FilterEvent, FilterEventKind, OpTracer, Phase, SpanEvent, ThreadTrace, TraceHub, TraceLevel,
    TraceSnapshot, N_PHASES,
};
pub use value::{hash_key, Value};
