//! Fault injection for chaos testing.
//!
//! A [`FaultPlan`] rides [`crate::ExecOptions`] the way a
//! [`crate::DelayModel`] does, but instead of slowing a source it
//! *breaks* the pipeline on purpose: any operator can be made to panic,
//! error, stall (bounded) or hang (until cancelled) after N batches. A
//! remote source is a scan ([`crate::SourceModel::Remote`]), so a dropped
//! link is an [`FaultKind::Error`] on that scan and a hung link a
//! [`FaultKind::Stall`]; both heal through the whole-run retry like any
//! other operator fault. The chaos
//! harnesses (`crates/engine/tests/chaos.rs`,
//! `crates/parallel/tests/chaos_dop.rs`) sweep these faults across dop ×
//! retry budgets and assert the lifecycle
//! invariant: every run is either byte-identical to the oracle or a
//! clean attributed error — never a partial `Ok`.
//!
//! Fault checks are zero-cost when no plan is installed: an operator
//! whose [`FaultPlan::spec_for`] lookup comes back `None` never touches
//! the fault state again.
//!
//! ## Fire budgets and recovery
//!
//! Each spec carries a `times` budget counted in a **ledger shared by
//! every clone of the plan** (the recovery layer re-runs failed queries
//! with cloned options). A fault with `times: 2` fires twice
//! *across all attempts and partitions combined* and then goes quiet —
//! which is exactly how a transient fault looks to a retry loop. The
//! default `u32::MAX` keeps the pre-recovery behavior: every armed
//! operator instance fires once per attempt, forever.

use parking_lot::Mutex;
use sip_common::{FxHashMap, Result, SipError};
use std::sync::Arc;
use std::time::Duration;

/// What an injected operator fault does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic the operator thread (exercises `catch_unwind` containment).
    Panic,
    /// Return an ordinary operator error.
    Error,
    /// Sleep for the given duration (cancellably), then continue. A
    /// *bounded* stall: used to exercise deadline enforcement and the
    /// progress watchdog against a slow-but-alive operator without
    /// wedging the test itself.
    Stall(Duration),
    /// Stall indefinitely: sleep until the run's `CancelToken` trips,
    /// then fail with a cancellation. A truly wedged operator — only
    /// deadlines, cancellation, or the progress watchdog (which fails the
    /// attempt as a retryable stall) get past it.
    Hang,
}

/// One injected operator fault: fire `kind`, after the operator has
/// received `after_batches` batches (0 = before the first batch), at
/// most `times` times plan-wide (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// What happens when the fault fires.
    pub kind: FaultKind,
    /// How many batches the operator processes normally first.
    pub after_batches: u64,
    /// Plan-wide fire budget shared across partitions and retry
    /// attempts. `u32::MAX` ≈ unlimited (fires on every attempt).
    pub times: u32,
}

/// A set of injected faults for one execution. Empty by default.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Faults keyed by operator kind name (`"HashJoin"`, `"Scan"`, ...):
    /// every operator of that kind gets the fault. With partition-parallel
    /// plans this is the way to hit a clone without knowing expanded ids.
    by_kind: FxHashMap<String, FaultSpec>,
    /// Faults keyed by physical operator id — precise targeting.
    by_op: FxHashMap<u32, FaultSpec>,
    /// Fires already spent per spec key, shared by **every clone** of
    /// this plan so bounded faults stay exhausted across retry attempts.
    ledger: Arc<Mutex<FxHashMap<String, u32>>>,
}

/// The ledger is bookkeeping, not configuration: two plans injecting the
/// same faults are equal regardless of how often either has fired.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.by_kind == other.by_kind && self.by_op == other.by_op
    }
}
impl Eq for FaultPlan {}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Are any faults installed?
    pub fn is_empty(&self) -> bool {
        self.by_kind.is_empty() && self.by_op.is_empty()
    }

    /// Inject `kind` at every operator whose kind name is `op_kind`,
    /// after `after_batches` clean batches, with an unlimited fire
    /// budget.
    pub fn with_kind_fault(
        self,
        op_kind: impl Into<String>,
        after_batches: u64,
        kind: FaultKind,
    ) -> Self {
        self.with_kind_fault_times(op_kind, after_batches, kind, u32::MAX)
    }

    /// Like [`FaultPlan::with_kind_fault`] but firing at most `times`
    /// times plan-wide — the transient-fault shape recovery tests use.
    pub fn with_kind_fault_times(
        mut self,
        op_kind: impl Into<String>,
        after_batches: u64,
        kind: FaultKind,
        times: u32,
    ) -> Self {
        self.by_kind.insert(
            op_kind.into(),
            FaultSpec {
                kind,
                after_batches,
                times,
            },
        );
        self
    }

    /// Inject `kind` at the operator with physical id `op`, with an
    /// unlimited fire budget.
    pub fn with_op_fault(self, op: u32, after_batches: u64, kind: FaultKind) -> Self {
        self.with_op_fault_times(op, after_batches, kind, u32::MAX)
    }

    /// Like [`FaultPlan::with_op_fault`] but firing at most `times`
    /// times plan-wide.
    pub fn with_op_fault_times(
        mut self,
        op: u32,
        after_batches: u64,
        kind: FaultKind,
        times: u32,
    ) -> Self {
        self.by_op.insert(
            op,
            FaultSpec {
                kind,
                after_batches,
                times,
            },
        );
        self
    }

    /// The fault an operator should arm, if any. Id-targeted faults win
    /// over kind-targeted ones.
    pub fn spec_for(&self, op: u32, kind_name: &str) -> Option<FaultSpec> {
        self.by_op
            .get(&op)
            .or_else(|| self.by_kind.get(kind_name))
            .cloned()
    }

    /// Arm the fault (if any) for one operator thread, binding it to the
    /// shared fire ledger so `times` budgets are honored across
    /// partitions and retry attempts.
    pub fn arm(&self, op: u32, kind_name: &str) -> FaultState {
        match self.by_op.get(&op) {
            Some(spec) => {
                FaultState::armed(spec.clone(), Arc::clone(&self.ledger), format!("op:{op}"))
            }
            None => match self.by_kind.get(kind_name) {
                Some(spec) => FaultState::armed(
                    spec.clone(),
                    Arc::clone(&self.ledger),
                    format!("kind:{kind_name}"),
                ),
                None => FaultState::default(),
            },
        }
    }

    /// Check internal consistency, mirroring
    /// [`crate::DelayModel::validate`]: a zero-length stall would be a
    /// no-op fault and almost certainly a mistyped duration, and a fault
    /// with a zero fire budget never happens.
    pub fn validate(&self) -> Result<()> {
        for (target, spec) in self
            .by_kind
            .iter()
            .map(|(k, s)| (k.clone(), s))
            .chain(self.by_op.iter().map(|(op, s)| (format!("op {op}"), s)))
        {
            if matches!(spec.kind, FaultKind::Stall(d) if d.is_zero()) {
                return Err(SipError::Config(format!(
                    "FaultPlan: stall of 0ns at {target} would be a no-op; \
                     give the stall a duration or drop the fault"
                )));
            }
            if spec.times == 0 {
                return Err(SipError::Config(format!(
                    "FaultPlan: fault at {target} with times == 0 would never fire; \
                     set times >= 1 or drop the fault"
                )));
            }
        }
        Ok(())
    }
}

/// The plan-wide fire ledger (fires spent per spec key) paired with the
/// key this thread's spec is counted under.
type FaultLedger = (Arc<Mutex<FxHashMap<String, u32>>>, String);

/// Per-operator-thread fault progress: counts incoming batches and
/// reports when the armed fault should fire. Fires at most once per
/// thread, and — when the spec carries a `times` budget — at most
/// `times` times plan-wide via the shared ledger.
#[derive(Debug, Default)]
pub struct FaultState {
    spec: Option<FaultSpec>,
    batches: u64,
    fired: bool,
    ledger: Option<FaultLedger>,
}

impl FaultState {
    /// Arm `spec` (or nothing) without a plan-wide budget. Kept for
    /// direct unit-testing of the threshold logic; engine code arms via
    /// [`FaultPlan::arm`].
    pub fn new(spec: Option<FaultSpec>) -> Self {
        FaultState {
            spec,
            batches: 0,
            fired: false,
            ledger: None,
        }
    }

    fn armed(spec: FaultSpec, ledger: Arc<Mutex<FxHashMap<String, u32>>>, key: String) -> Self {
        FaultState {
            spec: Some(spec),
            batches: 0,
            fired: false,
            ledger: Some((ledger, key)),
        }
    }

    /// Account for one incoming batch; returns the fault to fire now, if
    /// its threshold has been crossed and the plan-wide budget is not
    /// spent. The check is two branches when no fault is armed.
    pub fn on_batch(&mut self) -> Option<FaultKind> {
        let spec = self.spec.as_ref()?;
        if self.fired {
            return None;
        }
        if self.batches >= spec.after_batches {
            self.fired = true;
            if let Some((ledger, key)) = &self.ledger {
                if spec.times != u32::MAX {
                    let mut spent = ledger.lock();
                    let n = spent.entry(key.clone()).or_insert(0);
                    if *n >= spec.times {
                        return None; // budget exhausted: the fault healed
                    }
                    *n += 1;
                }
            }
            return Some(spec.kind.clone());
        }
        self.batches += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_arms_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.validate().is_ok());
        assert_eq!(plan.spec_for(3, "HashJoin"), None);
        let mut state = FaultState::new(None);
        for _ in 0..10 {
            assert_eq!(state.on_batch(), None);
        }
    }

    #[test]
    fn op_fault_wins_over_kind_fault() {
        let plan = FaultPlan::none()
            .with_kind_fault("Filter", 0, FaultKind::Error)
            .with_op_fault(7, 2, FaultKind::Panic);
        assert_eq!(
            plan.spec_for(7, "Filter").unwrap().kind,
            FaultKind::Panic,
            "id targeting beats kind targeting"
        );
        assert_eq!(plan.spec_for(8, "Filter").unwrap().kind, FaultKind::Error);
        assert_eq!(plan.spec_for(8, "Scan"), None);
    }

    #[test]
    fn fault_fires_once_after_threshold() {
        let mut state = FaultState::new(Some(FaultSpec {
            kind: FaultKind::Error,
            after_batches: 2,
            times: u32::MAX,
        }));
        assert_eq!(state.on_batch(), None);
        assert_eq!(state.on_batch(), None);
        assert_eq!(state.on_batch(), Some(FaultKind::Error));
        assert_eq!(state.on_batch(), None, "a fault fires at most once");
    }

    #[test]
    fn zero_threshold_fires_immediately() {
        let mut state = FaultState::new(Some(FaultSpec {
            kind: FaultKind::Panic,
            after_batches: 0,
            times: u32::MAX,
        }));
        assert_eq!(state.on_batch(), Some(FaultKind::Panic));
    }

    #[test]
    fn fire_budget_is_shared_across_clones_and_attempts() {
        let plan = FaultPlan::none().with_kind_fault_times("Scan", 0, FaultKind::Error, 2);
        // Three "attempts" (fresh FaultStates), against a budget of two
        // — including one armed from a *clone* of the plan, the way a
        // recovery retry clones options.
        let clone = plan.clone();
        assert_eq!(plan.arm(1, "Scan").on_batch(), Some(FaultKind::Error));
        assert_eq!(clone.arm(1, "Scan").on_batch(), Some(FaultKind::Error));
        assert_eq!(
            plan.arm(1, "Scan").on_batch(),
            None,
            "budget of 2 must be spent plan-wide"
        );
        // Equality ignores the ledger: a fresh identical plan compares
        // equal to the spent one.
        let fresh = FaultPlan::none().with_kind_fault_times("Scan", 0, FaultKind::Error, 2);
        assert_eq!(fresh, plan);
        // ... but has its own budget.
        assert_eq!(fresh.arm(1, "Scan").on_batch(), Some(FaultKind::Error));
    }

    #[test]
    fn unlimited_budget_never_consults_the_ledger() {
        let plan = FaultPlan::none().with_kind_fault("Scan", 0, FaultKind::Panic);
        for _ in 0..4 {
            assert_eq!(plan.arm(9, "Scan").on_batch(), Some(FaultKind::Panic));
        }
        assert!(plan.ledger.lock().is_empty());
    }

    #[test]
    fn degenerate_faults_are_rejected_at_config_time() {
        let stall = FaultPlan::none().with_kind_fault("Scan", 0, FaultKind::Stall(Duration::ZERO));
        assert_eq!(stall.validate().unwrap_err().layer(), "config");
        let never = FaultPlan::none().with_kind_fault_times("Scan", 0, FaultKind::Panic, 0);
        assert_eq!(never.validate().unwrap_err().layer(), "config");
        let ok = FaultPlan::none()
            .with_kind_fault("Scan", 1, FaultKind::Stall(Duration::from_millis(1)))
            .with_kind_fault_times("Filter", 0, FaultKind::Hang, 1);
        assert!(ok.validate().is_ok());
    }
}
