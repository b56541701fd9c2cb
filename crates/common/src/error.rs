//! The workspace-wide error type.

use std::fmt;

/// Result alias used across all SIP crates.
pub type Result<T, E = SipError> = std::result::Result<T, E>;

/// How an attributed execution failure came about. Ordered roughly by
/// how much the class says about root cause: a `Panic`, `Error` or
/// `Stall` *is* the root cause; `Disconnect` and `Cancelled` are symptoms
/// of a failure elsewhere and lose the end-of-query precedence race
/// against primary classes (see `sip-engine`'s error slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecFailure {
    /// The operator's thread panicked; the payload was contained by
    /// `catch_unwind` and converted into this error.
    Panic,
    /// The operator returned an error of its own.
    Error,
    /// No batch crossed any plan edge for a whole stall quantum (see
    /// `RetryPolicy::stall_quantum`): the run's progress watchdog gave up
    /// on it.
    Stall,
    /// An input channel disconnected without a clean `Eof` — the
    /// upstream operator died. Secondary: the upstream failure is the
    /// story.
    Disconnect,
    /// The shared `CancelToken` tripped (first failure elsewhere, a
    /// deadline, or an explicit cancel). Secondary.
    Cancelled,
}

impl ExecFailure {
    /// Short tag for messages and logs.
    pub fn tag(&self) -> &'static str {
        match self {
            ExecFailure::Panic => "panic",
            ExecFailure::Error => "error",
            ExecFailure::Stall => "stall",
            ExecFailure::Disconnect => "disconnect",
            ExecFailure::Cancelled => "cancelled",
        }
    }

    /// Does this class identify the root cause (vs. a downstream
    /// symptom of a failure elsewhere)?
    pub fn is_primary(&self) -> bool {
        matches!(
            self,
            ExecFailure::Panic | ExecFailure::Error | ExecFailure::Stall
        )
    }
}

/// Errors produced anywhere in the SIP stack.
///
/// The variants mirror the layer that raised them; the payload is a
/// human-readable description. Query processing errors are not recoverable
/// mid-pipeline, so a descriptive string is the appropriate granularity.
/// The one structured exception is [`SipError::ExecAt`]: execution
/// failures in a many-threaded pipeline are only diagnosable when they
/// carry *where* — operator id, operator kind, partition — and *how*
/// ([`ExecFailure`]), so the engine attributes them instead of flattening
/// to a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SipError {
    /// Malformed input data or data-generation failure.
    Data(String),
    /// Invalid expression (type mismatch, unbound column, ...).
    Expr(String),
    /// Invalid logical plan (unknown attribute, arity mismatch, ...).
    Plan(String),
    /// Optimizer failure (no join order, missing statistics, ...).
    Optimize(String),
    /// Runtime execution failure (channel teardown, operator panic, ...).
    Exec(String),
    /// Attributed runtime execution failure: what happened, at which
    /// operator, in which partition, and how it failed.
    ExecAt {
        /// Human-readable description (panic payload, error message, ...).
        message: String,
        /// The physical operator id the failure is attributed to.
        op: u32,
        /// The operator kind name (`"HashJoin"`, `"Scan"`, ...).
        kind: String,
        /// The partition the operator ran in, when partition-parallel.
        partition: Option<u32>,
        /// Failure class: panic, error, stall, disconnect, or cancellation.
        class: ExecFailure,
    },
    /// Simulated-network failure (unknown site, link misconfiguration, ...).
    Net(String),
    /// Configuration error in a harness or example.
    Config(String),
}

impl SipError {
    /// Build an attributed execution error.
    pub fn exec_at(
        message: impl Into<String>,
        op: u32,
        kind: impl Into<String>,
        partition: Option<u32>,
        class: ExecFailure,
    ) -> Self {
        SipError::ExecAt {
            message: message.into(),
            op,
            kind: kind.into(),
            partition,
            class,
        }
    }

    /// The layer tag, useful for compact logging.
    pub fn layer(&self) -> &'static str {
        match self {
            SipError::Data(_) => "data",
            SipError::Expr(_) => "expr",
            SipError::Plan(_) => "plan",
            SipError::Optimize(_) => "optimize",
            SipError::Exec(_) | SipError::ExecAt { .. } => "exec",
            SipError::Net(_) => "net",
            SipError::Config(_) => "config",
        }
    }

    /// The human-readable message (without attribution — see `Display`
    /// for the full form).
    pub fn message(&self) -> &str {
        match self {
            SipError::Data(m)
            | SipError::Expr(m)
            | SipError::Plan(m)
            | SipError::Optimize(m)
            | SipError::Exec(m)
            | SipError::ExecAt { message: m, .. }
            | SipError::Net(m)
            | SipError::Config(m) => m,
        }
    }

    /// The failure class when this is an attributed execution error.
    pub fn exec_class(&self) -> Option<ExecFailure> {
        match self {
            SipError::ExecAt { class, .. } => Some(*class),
            _ => None,
        }
    }

    /// Does this error identify a root cause (an attributed panic,
    /// operator error or stall, or any non-`ExecAt` error)? Disconnects and
    /// cancellations are symptoms and report `false`.
    pub fn is_primary(&self) -> bool {
        match self {
            SipError::ExecAt { class, .. } => class.is_primary(),
            _ => true,
        }
    }
}

impl fmt::Display for SipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SipError::ExecAt {
                message,
                op,
                kind,
                partition,
                class,
            } => {
                write!(
                    f,
                    "exec error: {message} [{} at {kind} op {op}",
                    class.tag()
                )?;
                if let Some(p) = partition {
                    write!(f, ", partition {p}")?;
                }
                write!(f, "]")
            }
            other => write!(f, "{} error: {}", other.layer(), other.message()),
        }
    }
}

impl std::error::Error for SipError {}

/// Shorthand constructors: `plan_err!("bad attr {a}")`.
#[macro_export]
macro_rules! plan_err {
    ($($arg:tt)*) => { $crate::error::SipError::Plan(format!($($arg)*)) };
}

/// Shorthand constructor for [`SipError::Exec`].
#[macro_export]
macro_rules! exec_err {
    ($($arg:tt)*) => { $crate::error::SipError::Exec(format!($($arg)*)) };
}

/// Shorthand constructor for [`SipError::Expr`].
#[macro_export]
macro_rules! expr_err {
    ($($arg:tt)*) => { $crate::error::SipError::Expr(format!($($arg)*)) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_layer_and_message() {
        let e = SipError::Plan("attribute #4 unknown".into());
        assert_eq!(e.to_string(), "plan error: attribute #4 unknown");
        assert_eq!(e.layer(), "plan");
        assert_eq!(e.message(), "attribute #4 unknown");
    }

    #[test]
    fn macros_build_correct_variants() {
        let e = plan_err!("x = {}", 3);
        assert_eq!(e, SipError::Plan("x = 3".into()));
        let e = exec_err!("boom");
        assert_eq!(e, SipError::Exec("boom".into()));
        let e = expr_err!("bad type");
        assert_eq!(e, SipError::Expr("bad type".into()));
    }

    #[test]
    fn all_layers_are_distinct() {
        let layers: Vec<&str> = [
            SipError::Data(String::new()),
            SipError::Expr(String::new()),
            SipError::Plan(String::new()),
            SipError::Optimize(String::new()),
            SipError::Exec(String::new()),
            SipError::Net(String::new()),
            SipError::Config(String::new()),
        ]
        .iter()
        .map(|e| e.layer())
        .collect();
        let set: std::collections::HashSet<_> = layers.iter().collect();
        assert_eq!(set.len(), layers.len());
    }

    #[test]
    fn attributed_exec_errors_carry_context() {
        let e = SipError::exec_at("division by zero", 7, "Filter", Some(2), ExecFailure::Error);
        assert_eq!(e.layer(), "exec");
        assert_eq!(e.message(), "division by zero");
        assert_eq!(e.exec_class(), Some(ExecFailure::Error));
        assert!(e.is_primary());
        assert_eq!(
            e.to_string(),
            "exec error: division by zero [error at Filter op 7, partition 2]"
        );

        let d = SipError::exec_at(
            "input closed before Eof",
            3,
            "Merge",
            None,
            ExecFailure::Disconnect,
        );
        assert!(!d.is_primary());
        assert_eq!(
            d.to_string(),
            "exec error: input closed before Eof [disconnect at Merge op 3]"
        );
        // Plain string variants stay primary and unattributed.
        assert!(exec_err!("boom").is_primary());
        assert_eq!(exec_err!("boom").exec_class(), None);
    }
}
