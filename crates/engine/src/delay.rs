//! Source models: how a scan's table reaches the executor.
//!
//! §VI-B of the paper delays the PARTSUPP relation "by 100msec and
//! rate-limited by injecting a 5msec delay every 1000 tuples" to emulate
//! wide-area sources. [`DelayModel`] reproduces exactly that shape.
//! §V-B fetches a relation from a remote site instead, where shipped AIP
//! filters prune it before it crosses the link ([`SourceModel::Remote`]).

use crate::link::LinkSpec;
use sip_common::{Result, SipError};
use std::time::Duration;

/// How one scan's table reaches the executor; a scan with no entry in
/// [`crate::ExecOptions::sources`] reads local storage at full speed.
#[derive(Clone, Debug, PartialEq)]
pub enum SourceModel {
    /// A slow source that cannot take filters: the scan pays the delay for
    /// every chunk it reads, then applies its taps (§VI-B).
    Delayed(DelayModel),
    /// A remote site over a link: the scan applies its taps at the site,
    /// pays the link for each newly injected filter and for the surviving
    /// rows only — a Bloomjoin (§V-B).
    Remote(LinkSpec),
}

/// A delay model applied by a scan (or simulated remote source).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayModel {
    /// One-time delay before the first tuple.
    pub initial: Duration,
    /// Emit a pause every `every_n` tuples (0 disables rate limiting).
    pub every_n: u64,
    /// The recurring pause.
    pub pause: Duration,
}

impl DelayModel {
    /// No delay at all.
    pub fn none() -> Self {
        DelayModel {
            initial: Duration::ZERO,
            every_n: 0,
            pause: Duration::ZERO,
        }
    }

    /// The paper's §VI-B configuration: 100 ms initial + 5 ms per 1000 tuples.
    pub fn paper_delayed() -> Self {
        DelayModel {
            initial: Duration::from_millis(100),
            every_n: 1000,
            pause: Duration::from_millis(5),
        }
    }

    /// A pure initial delay.
    pub fn initial_only(d: Duration) -> Self {
        DelayModel {
            initial: d,
            every_n: 0,
            pause: Duration::ZERO,
        }
    }

    /// Build a validated model: a recurring `pause` with `every_n == 0` is
    /// rejected instead of silently never firing (the zero divisor used to
    /// fall back to "no pauses", turning a misconfigured rate limit into an
    /// undelayed source). Mirrors [`crate::ExecOptions::validated`].
    pub fn validated(initial: Duration, every_n: u64, pause: Duration) -> Result<Self> {
        let m = DelayModel {
            initial,
            every_n,
            pause,
        };
        m.validate()?;
        Ok(m)
    }

    /// Check internal consistency (see [`DelayModel::validated`]).
    pub fn validate(&self) -> Result<()> {
        if self.every_n == 0 && !self.pause.is_zero() {
            return Err(SipError::Config(format!(
                "DelayModel: pause {:?} with every_n == 0 would never fire; \
                 set every_n >= 1 or drop the pause",
                self.pause
            )));
        }
        Ok(())
    }

    /// Is this effectively no delay?
    pub fn is_none(&self) -> bool {
        self.initial.is_zero() && (self.every_n == 0 || self.pause.is_zero())
    }

    /// Total sleep this model adds across `n` tuples. (`every_n == 0`
    /// means no rate limiting; validation guarantees `pause` is zero then,
    /// so the skipped division cannot hide a configured pause.)
    pub fn total_for(&self, n: u64) -> Duration {
        let pauses = n.checked_div(self.every_n).unwrap_or(0);
        self.initial + self.pause * pauses as u32
    }
}

/// Tracks progress through a [`DelayModel`] during a scan.
#[derive(Debug)]
pub struct DelayState {
    model: DelayModel,
    emitted: u64,
    started: bool,
}

impl DelayState {
    /// Start tracking a model.
    pub fn new(model: DelayModel) -> Self {
        DelayState {
            model,
            emitted: 0,
            started: false,
        }
    }

    /// Account for `n` more tuples; returns how long the caller must sleep
    /// before emitting them.
    pub fn advance(&mut self, n: u64) -> Duration {
        let mut sleep = Duration::ZERO;
        if !self.started {
            self.started = true;
            sleep += self.model.initial;
        }
        if let Some(before) = self.emitted.checked_div(self.model.every_n) {
            let after = (self.emitted + n) / self.model.every_n;
            sleep += self.model.pause * (after - before) as u32;
        }
        self.emitted += n;
        sleep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_zero() {
        let m = DelayModel::none();
        assert!(m.is_none());
        assert_eq!(m.total_for(1_000_000), Duration::ZERO);
    }

    #[test]
    fn paper_model_matches_spec() {
        let m = DelayModel::paper_delayed();
        assert_eq!(m.initial, Duration::from_millis(100));
        // 10k tuples → 10 pauses of 5 ms + 100 ms initial.
        assert_eq!(m.total_for(10_000), Duration::from_millis(150));
    }

    #[test]
    fn state_advances_in_batches() {
        let mut s = DelayState::new(DelayModel {
            initial: Duration::from_millis(7),
            every_n: 100,
            pause: Duration::from_millis(1),
        });
        // First batch pays the initial delay.
        assert_eq!(s.advance(50), Duration::from_millis(7));
        // Crossing the 100-tuple boundary pays one pause.
        assert_eq!(s.advance(60), Duration::from_millis(1));
        // Not crossing: no pause.
        assert_eq!(s.advance(10), Duration::ZERO);
        // Crossing three boundaries at once pays three pauses.
        assert_eq!(s.advance(300), Duration::from_millis(3));
    }

    #[test]
    fn pause_without_period_is_rejected() {
        let err = DelayModel::validated(Duration::ZERO, 0, Duration::from_millis(5));
        assert!(err.is_err(), "every_n == 0 with a pause must not validate");
        // The legitimate every_n == 0 shapes still pass: no delay at all,
        // and a pure initial delay.
        assert!(DelayModel::none().validate().is_ok());
        assert!(DelayModel::initial_only(Duration::from_millis(9))
            .validate()
            .is_ok());
        assert!(DelayModel::paper_delayed().validate().is_ok());
        let ok = DelayModel::validated(Duration::from_millis(1), 100, Duration::from_millis(2));
        assert_eq!(ok.unwrap().total_for(1000), Duration::from_millis(21));
    }

    #[test]
    fn initial_only_fires_once() {
        let mut s = DelayState::new(DelayModel::initial_only(Duration::from_millis(5)));
        assert_eq!(s.advance(1), Duration::from_millis(5));
        assert_eq!(s.advance(1_000), Duration::ZERO);
    }
}
