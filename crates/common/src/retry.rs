//! Shared retry policy: bounded attempts, exponential backoff with
//! deterministic jitter, and retryability classification over
//! [`ExecFailure`] classes.
//!
//! The policy drives the engine's one recovery scope, the whole-run retry
//! loop (`sip_engine::run_with_recovery`, which also heals remote-link
//! faults), so budgets, backoff curves, and exhaustion reporting behave
//! identically on every entry point. The policy also
//! arms the engine's per-run progress watchdog
//! ([`RetryPolicy::stall_quantum`]), which turns a wedged run into a
//! retryable [`ExecFailure::Stall`].
//!
//! Jitter is *deterministic*: a splitmix64 hash of `(jitter_seed,
//! attempt)` decides where in `[backoff/2, backoff)` a delay lands, so
//! chaos tests and benchmarks replay byte-identically while concurrent
//! retry scopes with distinct seeds still decorrelate.

use crate::error::{ExecFailure, SipError};
use std::time::Duration;

/// Marker appended to an error message when a retry budget runs out.
/// Kept greppable and stable: outer recovery scopes use it (via
/// [`is_exhausted`]) to avoid re-retrying an already-exhausted failure,
/// and tests assert the surfaced error names the exhausted policy.
const EXHAUSTED_MARKER: &str = "RetryPolicy exhausted";

/// A bounded-retry policy with exponential, deterministically jittered
/// backoff.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, *including* the first (1 = fail-fast, no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry after that.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff delay (pre-jitter).
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter hash. Two scopes with the same
    /// seed and attempt number sleep identically.
    pub jitter_seed: u64,
    /// When set, the engine runs a progress watchdog beside each
    /// attempt: if no batch crosses any plan edge for this long, the
    /// attempt fails with a retryable [`ExecFailure::Stall`]. `None`
    /// leaves stalls to deadlines and explicit cancellation.
    pub stall_quantum: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(100),
            jitter_seed: 0x51_AE5,
            stall_quantum: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with `max_attempts` total attempts and the default
    /// backoff curve.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// The delay before retry number `retry` (1-based: the delay taken
    /// after the first failed attempt is `backoff(1)`). Exponential in
    /// `retry`, capped at `max_backoff`, then jittered deterministically
    /// into `[d/2, d)`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(31);
        let uncapped = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(exp).unwrap_or(u32::MAX));
        let capped = uncapped.min(self.max_backoff);
        if capped.is_zero() {
            return capped;
        }
        let half = capped / 2;
        // 53 bits of hash → a fraction in [0, 1).
        let frac =
            (splitmix64(self.jitter_seed ^ u64::from(retry)) >> 11) as f64 / (1u64 << 53) as f64;
        half + capped.mul_f64(frac / 2.0)
    }

    /// Sanity-check the policy at configuration time, mirroring
    /// `FaultPlan::validate`: a zero-attempt budget can never run the
    /// query at all, and a multi-attempt policy whose backoff ceiling is
    /// below its base is almost certainly a mistyped duration.
    pub fn validate(&self) -> Result<(), SipError> {
        if self.max_attempts == 0 {
            return Err(SipError::Config(
                "RetryPolicy: max_attempts == 0 would never even run the first attempt; \
                 use 1 for fail-fast"
                    .into(),
            ));
        }
        if self.max_backoff < self.base_backoff {
            return Err(SipError::Config(format!(
                "RetryPolicy: max_backoff {:?} below base_backoff {:?}",
                self.max_backoff, self.base_backoff
            )));
        }
        if self.stall_quantum.is_some_and(|q| q.is_zero()) {
            return Err(SipError::Config(
                "RetryPolicy: stall_quantum of 0ns would declare every run stalled \
                 immediately; give it a duration or use None"
                    .into(),
            ));
        }
        Ok(())
    }
}

/// Per-scope retry progress: tracks the attempt counter against a
/// [`RetryPolicy`] and hands out backoff delays until the budget is
/// exhausted.
#[derive(Clone, Debug)]
pub struct RetryState {
    policy: RetryPolicy,
    attempt: u32,
}

impl RetryState {
    /// Start a scope: attempt 1 is about to run.
    pub fn new(policy: RetryPolicy) -> Self {
        RetryState { policy, attempt: 1 }
    }

    /// The attempt number currently running (1-based).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// The current attempt failed with `class`: if the class is
    /// retryable (a panic, error or stall) and budget remains, advance the attempt counter and
    /// return the backoff to sleep before the next attempt. `None`
    /// means give up (non-retryable class, or budget exhausted — use
    /// [`RetryState::exhausted`] to tell which when reporting).
    pub fn again(&mut self, class: ExecFailure) -> Option<Duration> {
        if !retryable(class) || self.attempt >= self.policy.max_attempts {
            return None;
        }
        let delay = self.policy.backoff(self.attempt);
        self.attempt += 1;
        Some(delay)
    }

    /// Did the scope run out of budget (as opposed to hitting a
    /// non-retryable class)?
    pub fn exhausted(&self, class: ExecFailure) -> bool {
        retryable(class) && self.attempt >= self.policy.max_attempts
    }

    /// Decorate `err` as the final, budget-exhausted failure of this
    /// scope. The attributed structure (op, kind, partition, class) is
    /// preserved; the message gains the exhaustion marker naming the
    /// budget, which [`is_exhausted`] recognizes so outer scopes do not
    /// retry it again.
    pub fn give_up(&self, err: SipError) -> SipError {
        mark_exhausted(err, self.attempt, self.policy.max_attempts)
    }
}

/// Is a failure of `class` retried under a policy? Exactly the root
/// causes are: panics, operator errors and stalls. Cancellation and
/// deadline expiry ([`ExecFailure::Cancelled`]) never are — the user
/// asked the query to stop — and a disconnect is a symptom whose primary
/// failure decides.
fn retryable(class: ExecFailure) -> bool {
    class.is_primary()
}

/// Append the exhaustion marker to an error's message, preserving the
/// variant and attribution.
pub fn mark_exhausted(err: SipError, attempts: u32, budget: u32) -> SipError {
    let suffix = format!("; {EXHAUSTED_MARKER} after {attempts}/{budget} attempts");
    match err {
        SipError::ExecAt {
            message,
            op,
            kind,
            partition,
            class,
        } => SipError::ExecAt {
            message: format!("{message}{suffix}"),
            op,
            kind,
            partition,
            class,
        },
        SipError::Exec(m) => SipError::Exec(format!("{m}{suffix}")),
        SipError::Net(m) => SipError::Net(format!("{m}{suffix}")),
        SipError::Data(m) => SipError::Data(format!("{m}{suffix}")),
        SipError::Expr(m) => SipError::Expr(format!("{m}{suffix}")),
        SipError::Plan(m) => SipError::Plan(format!("{m}{suffix}")),
        SipError::Optimize(m) => SipError::Optimize(format!("{m}{suffix}")),
        SipError::Config(m) => SipError::Config(format!("{m}{suffix}")),
    }
}

/// Does `err` carry the exhaustion marker of some retry scope? Outer
/// recovery layers use this to surface the error as-is instead of
/// re-spending their own budget on a failure that already outlived one.
pub fn is_exhausted(err: &SipError) -> bool {
    err.message().contains(EXHAUSTED_MARKER)
}

/// splitmix64: a tiny, high-quality 64-bit mixer. Deterministic jitter
/// needs no cryptographic strength, only decorrelation.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(4),
            max_backoff: Duration::from_millis(20),
            jitter_seed: 7,
            ..RetryPolicy::default()
        }
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = policy();
        // Jitter keeps each delay in [d/2, d) of the exponential curve.
        let within = |retry: u32, d_ms: u64| {
            let got = p.backoff(retry);
            let d = Duration::from_millis(d_ms);
            assert!(
                got >= d / 2 && got < d,
                "retry {retry}: {got:?} outside [{:?}, {d:?})",
                d / 2
            );
        };
        within(1, 4);
        within(2, 8);
        within(3, 16);
        within(4, 20); // capped at max_backoff
        within(9, 20); // stays capped
        assert!(p.backoff(2) > p.backoff(1), "backoff must grow");
    }

    #[test]
    fn jitter_is_deterministic_under_a_seed() {
        let a = policy();
        let b = policy();
        for retry in 1..6 {
            assert_eq!(a.backoff(retry), b.backoff(retry), "retry {retry}");
        }
        // A different seed decorrelates at least one delay.
        let c = RetryPolicy {
            jitter_seed: 8,
            ..policy()
        };
        assert!(
            (1..6).any(|r| c.backoff(r) != a.backoff(r)),
            "reseeding never moved a delay"
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_and_sticky() {
        let mut s = RetryState::new(RetryPolicy::with_attempts(3));
        assert_eq!(s.attempt(), 1);
        assert!(s.again(ExecFailure::Panic).is_some());
        assert!(s.again(ExecFailure::Error).is_some());
        assert_eq!(s.attempt(), 3);
        assert_eq!(s.again(ExecFailure::Panic), None, "budget spent");
        assert!(s.exhausted(ExecFailure::Panic));

        let err = s.give_up(SipError::exec_at(
            "boom",
            7,
            "Scan",
            Some(2),
            ExecFailure::Panic,
        ));
        assert!(is_exhausted(&err), "marker must survive: {err}");
        assert_eq!(err.exec_class(), Some(ExecFailure::Panic));
        let msg = err.to_string();
        assert!(
            msg.contains("RetryPolicy exhausted after 3/3 attempts"),
            "error must name the exhausted budget: {msg}"
        );
        // The attribution is intact.
        assert!(msg.contains("at Scan op 7"), "{msg}");
    }

    #[test]
    fn non_retryable_classes_never_loop() {
        let mut s = RetryState::new(RetryPolicy::with_attempts(10));
        assert_eq!(s.again(ExecFailure::Cancelled), None);
        assert_eq!(s.again(ExecFailure::Disconnect), None);
        assert!(!s.exhausted(ExecFailure::Cancelled));
        for class in [ExecFailure::Panic, ExecFailure::Error, ExecFailure::Stall] {
            assert!(s.again(class).is_some(), "{class:?} must be retried");
        }
    }

    #[test]
    fn fail_fast_policy_never_retries() {
        let mut s = RetryState::new(RetryPolicy::with_attempts(1));
        assert_eq!(s.again(ExecFailure::Error), None);
        assert!(s.exhausted(ExecFailure::Error));
    }

    #[test]
    fn degenerate_policies_are_rejected_at_config_time() {
        let zero = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(zero.validate().unwrap_err().layer(), "config");
        let inverted = RetryPolicy {
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_millis(5),
            ..RetryPolicy::default()
        };
        assert_eq!(inverted.validate().unwrap_err().layer(), "config");
        let zero_quantum = RetryPolicy {
            stall_quantum: Some(Duration::ZERO),
            ..RetryPolicy::default()
        };
        assert_eq!(zero_quantum.validate().unwrap_err().layer(), "config");
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy::with_attempts(1).validate().is_ok());
    }

    #[test]
    fn exhaustion_marker_rides_every_variant() {
        for e in [
            SipError::Net("link down".into()),
            SipError::Exec("boom".into()),
        ] {
            let marked = mark_exhausted(e, 2, 2);
            assert!(is_exhausted(&marked), "{marked}");
            assert!(!is_exhausted(&SipError::Exec("clean".into())));
        }
    }
}
