//! The recovery layer: one whole-run retry loop.
//!
//! The fail-fast executor guarantees a failed run dies *cleanly*: an
//! attributed error, no partial `Ok`, no leaked threads. This module
//! turns those clean deaths into repair opportunities. The enabler is
//! determinism: every source re-reads the same table in the same chunks,
//! and every injected failure comes from a [`crate::FaultPlan`] whose
//! fire ledger is shared across attempts, so re-running the whole query
//! from its sources is a complete recovery. A retried run is
//! byte-identical to a clean one by construction — it *is* a clean run.
//!
//! Stalls take the same path. With
//! [`sip_common::RetryPolicy::stall_quantum`] set, [`crate::execute_ctx`]
//! runs a progress watchdog that fails an attempt with a retryable
//! [`sip_common::ExecFailure::Stall`] when no batch crosses any plan edge
//! for one quantum, and this loop re-runs it.

use crate::context::ExecOptions;
use crate::exec::QueryOutput;
use sip_common::cancel::CancelToken;
use sip_common::retry::{self, RetryState};
use sip_common::Result;

/// Run-level retry: execute `run` under the options' [`sip_common::RetryPolicy`],
/// re-running the whole query (with cloned options) on retryable failures
/// until it succeeds or the budget is spent. This is the one recovery
/// scope, wrapped around [`crate::execute_ctx`] by the serial,
/// partition-parallel and remote-source entry points. An error an inner
/// retry scope already marked exhausted passes through without spending
/// this loop's budget again.
pub fn run_with_recovery(
    options: ExecOptions,
    mut run: impl FnMut(ExecOptions) -> Result<QueryOutput>,
) -> Result<QueryOutput> {
    let Some(policy) = options.retry.clone() else {
        return run(options);
    };
    if policy.max_attempts <= 1 {
        return run(options);
    }
    let mut state = RetryState::new(policy);
    let mut opts = options;
    loop {
        // Prepared before `run` consumes the options; shares the fault
        // ledger so bounded chaos faults stay exhausted across attempts.
        let next = opts.clone();
        match run(opts) {
            Ok(mut out) => {
                out.metrics.attempts = state.attempt();
                out.metrics.recovered |= state.attempt() > 1;
                return Ok(out);
            }
            Err(e) => {
                if retry::is_exhausted(&e) {
                    return Err(e); // an inner scope already spent a budget
                }
                let Some(class) = e.exec_class() else {
                    return Err(e);
                };
                match state.again(class) {
                    Some(delay) => {
                        CancelToken::new().sleep_cancellable(delay);
                        opts = next;
                    }
                    None => {
                        return Err(if state.exhausted(class) {
                            state.give_up(e)
                        } else {
                            e
                        })
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsHub;
    use sip_common::error::ExecFailure;
    use sip_common::retry::RetryPolicy;
    use sip_common::SipError;
    use std::time::Duration;

    fn fake_output() -> QueryOutput {
        QueryOutput {
            rows: Vec::new(),
            metrics: MetricsHub::new(0).finish(Duration::ZERO, 0),
        }
    }

    fn retryable_err() -> SipError {
        SipError::exec_at("boom", 1, "Scan", None, ExecFailure::Error)
    }

    #[test]
    fn run_level_retry_heals_transient_failures() {
        let opts = ExecOptions::default().with_retry(RetryPolicy {
            base_backoff: Duration::from_micros(50),
            ..RetryPolicy::with_attempts(3)
        });
        let mut calls = 0u32;
        let out = run_with_recovery(opts, |_| {
            calls += 1;
            if calls < 3 {
                Err(retryable_err())
            } else {
                Ok(fake_output())
            }
        })
        .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(out.metrics.attempts, 3);
        assert!(out.metrics.recovered);
    }

    #[test]
    fn run_level_retry_exhausts_with_named_budget() {
        let opts = ExecOptions::default().with_retry(RetryPolicy {
            base_backoff: Duration::from_micros(50),
            ..RetryPolicy::with_attempts(2)
        });
        let mut calls = 0u32;
        let err = run_with_recovery(opts, |_| {
            calls += 1;
            Err(retryable_err())
        })
        .unwrap_err();
        assert_eq!(calls, 2);
        assert!(retry::is_exhausted(&err), "{err}");
        assert!(err.to_string().contains("RetryPolicy exhausted"), "{err}");
        assert_eq!(err.exec_class(), Some(ExecFailure::Error));
    }

    #[test]
    fn run_level_retry_respects_inner_exhaustion_and_classes() {
        // An error already marked exhausted by an inner scope must pass
        // through without re-spending the run-level budget.
        let opts = ExecOptions::default().with_retry(RetryPolicy::with_attempts(5));
        let mut calls = 0u32;
        let inner = RetryState::new(RetryPolicy::with_attempts(2)).give_up(retryable_err());
        let err = run_with_recovery(opts, |_| {
            calls += 1;
            Err(inner.clone())
        })
        .unwrap_err();
        assert_eq!(calls, 1, "exhausted errors must not be retried again");
        assert!(retry::is_exhausted(&err));
        // Cancellation is never retried.
        let opts = ExecOptions::default().with_retry(RetryPolicy::with_attempts(5));
        let mut calls = 0u32;
        let err = run_with_recovery(opts, |_| {
            calls += 1;
            Err(SipError::exec_at(
                "deadline exceeded",
                0,
                "Scan",
                None,
                ExecFailure::Cancelled,
            ))
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert!(!retry::is_exhausted(&err));
    }

    #[test]
    fn no_policy_means_single_shot() {
        let mut calls = 0u32;
        let err = run_with_recovery(ExecOptions::default(), |_| {
            calls += 1;
            Err(retryable_err())
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert!(!retry::is_exhausted(&err));
    }
}
