//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is shared by every thread of one query execution —
//! operator threads (remote scans included), shuffle-mesh writers, and
//! the root drain. The first failure (operator error, contained panic,
//! injected fault, deadline, or an explicit [`CancelToken::cancel`] call)
//! trips the token; every other thread notices at its next per-batch
//! check and winds down promptly instead of running the doomed query to
//! completion against dead channels.
//!
//! The token is advisory, not preemptive: nothing is interrupted
//! mid-batch. Operators observe it once per batch in the `Emitter`, at
//! stateful build loops, and inside every delay-model sleep, which bounds
//! the teardown latency to roughly one batch of work per operator.
//!
//! Deadlines ride the same mechanism: [`CancelToken::set_deadline`] arms
//! an expiry instant, and the first [`CancelToken::is_cancelled`] call
//! past that instant trips the token with a "deadline exceeded" reason.
//! The fast path stays cheap — with no deadline armed a check is two
//! relaxed atomic loads; with one armed it adds a clock read.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a cancellable sleep naps between token checks.
const SLEEP_SLICE: Duration = Duration::from_millis(2);

#[derive(Debug, Default)]
struct Inner {
    /// Set once, by whichever thread cancels first.
    flag: AtomicBool,
    /// Human-readable reason recorded by the winning `cancel` call.
    reason: Mutex<Option<String>>,
    /// Fast-path gate: true once a deadline has been armed, so checks
    /// without one never touch the deadline mutex or the clock.
    has_deadline: AtomicBool,
    /// The armed expiry instant, if any.
    deadline: Mutex<Option<Instant>>,
}

/// Shared cancellation flag for one query execution. Cheap to clone
/// (one `Arc`), checked once per batch on the hot path.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trip the token. The first call wins and records `reason`; later
    /// calls are no-ops. Returns `true` iff this call was the winner.
    pub fn cancel(&self, reason: impl Into<String>) -> bool {
        let won = self
            .inner
            .flag
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            *self.inner.reason.lock().unwrap_or_else(|p| p.into_inner()) = Some(reason.into());
        }
        won
    }

    /// Has the token been tripped? Also arms itself when a deadline has
    /// expired, so any thread's routine check converts a passed deadline
    /// into a cancellation.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        if self.inner.has_deadline.load(Ordering::Acquire) {
            let expired = {
                let dl = self
                    .inner
                    .deadline
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                matches!(*dl, Some(d) if Instant::now() >= d)
            };
            if expired {
                self.cancel("deadline exceeded".to_string());
                return true;
            }
        }
        false
    }

    /// Has the token been *explicitly* tripped? Unlike
    /// [`is_cancelled`](Self::is_cancelled) this never self-arms from a
    /// deadline — used on the success path so a query whose last batch
    /// drains just past its deadline, with no thread having observed the
    /// expiry, still returns its complete, correct result.
    pub fn cancelled_flag(&self) -> bool {
        self.inner.flag.load(Ordering::Acquire)
    }

    /// The reason recorded by the winning `cancel` call, if any.
    pub fn reason(&self) -> Option<String> {
        self.inner
            .reason
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Arm a deadline. The token trips at the first check past `at`.
    pub fn set_deadline(&self, at: Instant) {
        *self
            .inner
            .deadline
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(at);
        self.inner.has_deadline.store(true, Ordering::Release);
    }

    /// The armed deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        if !self.inner.has_deadline.load(Ordering::Acquire) {
            return None;
        }
        *self
            .inner
            .deadline
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    /// Sleep for `dur`, waking early if the token trips. Returns `true`
    /// when the full duration elapsed, `false` when cancelled mid-sleep.
    /// Delay models and injected stalls sleep through this so a slow
    /// simulated source can't hold a cancelled query open.
    pub fn sleep_cancellable(&self, dur: Duration) -> bool {
        let end = Instant::now() + dur;
        loop {
            if self.is_cancelled() {
                return false;
            }
            let now = Instant::now();
            if now >= end {
                return true;
            }
            std::thread::sleep(SLEEP_SLICE.min(end - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_wins_and_double_cancel_is_idempotent() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.cancel("first"));
        assert!(!t.cancel("second"));
        assert!(t.is_cancelled());
        assert!(t.cancelled_flag());
        assert_eq!(t.reason().as_deref(), Some("first"));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel("from clone");
        assert!(t.is_cancelled());
        assert_eq!(t.reason().as_deref(), Some("from clone"));
    }

    #[test]
    fn deadline_arms_on_check_but_not_on_flag_read() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() - Duration::from_millis(1));
        // The raw flag read does not self-arm ...
        assert!(!t.cancelled_flag());
        // ... the routine check does.
        assert!(t.is_cancelled());
        assert!(t.cancelled_flag());
        assert!(t.reason().unwrap().contains("deadline exceeded"));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::new();
        t.set_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
    }

    #[test]
    fn cancellable_sleep_wakes_early() {
        let t = CancelToken::new();
        let u = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            u.cancel("wake up");
        });
        let start = Instant::now();
        let completed = t.sleep_cancellable(Duration::from_secs(30));
        assert!(!completed);
        assert!(start.elapsed() < Duration::from_secs(5));
        h.join().unwrap();
    }

    #[test]
    fn cancellable_sleep_completes_when_untripped() {
        let t = CancelToken::new();
        assert!(t.sleep_cancellable(Duration::from_millis(5)));
    }
}
