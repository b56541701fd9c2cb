//! Uniform query execution under the paper's four strategies.

use crate::config::AipConfig;
use crate::costbased::CostBased;
use crate::feedforward::FeedForward;
use sip_common::Result;
use sip_data::Catalog;
use sip_engine::{
    execute_with_recovery, lower, ExecMonitor, ExecOptions, NoopMonitor, PartitionMap, PhysPlan,
    QueryOutput,
};
use sip_optimizer::{magic_rewrite, CostModel};
use sip_parallel::PartitionedExec;
use sip_plan::{AttrCatalog, LogicalPlan, PredicateIndex};
use std::fmt;
use std::sync::Arc;

/// The execution strategies compared throughout §VI.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Push execution with no information passing.
    Baseline,
    /// The pipelined magic-sets rewriting baseline (ref. \[18\], §VI).
    Magic,
    /// Greedy feed-forward filtering (§IV-A).
    FeedForward,
    /// Cost-based AIP (§IV-B).
    CostBased,
}

impl Strategy {
    /// All four, in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::Baseline,
        Strategy::Magic,
        Strategy::FeedForward,
        Strategy::CostBased,
    ];

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Baseline => "Baseline",
            Strategy::Magic => "Magic",
            Strategy::FeedForward => "Feed-forward",
            Strategy::CostBased => "Cost-based",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A logical query ready to run: plan + attribute catalog.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The (decorrelated) logical plan.
    pub plan: LogicalPlan,
    /// Its attribute catalog.
    pub attrs: AttrCatalog,
}

impl QuerySpec {
    /// Build and validate.
    pub fn new(plan: LogicalPlan, attrs: AttrCatalog) -> Result<Self> {
        plan.validate()?;
        Ok(QuerySpec { plan, attrs })
    }

    /// Lower to a physical plan under a strategy (Magic rewrites first).
    pub fn lower(&self, catalog: &Catalog, strategy: Strategy) -> Result<PhysPlan> {
        match strategy {
            Strategy::Magic => {
                let rw = magic_rewrite(&self.plan);
                lower(&rw.plan, self.attrs.clone(), catalog)
            }
            _ => lower(&self.plan, self.attrs.clone(), catalog),
        }
    }

    /// The execution monitor that runs `strategy`: no controller for
    /// Baseline and Magic, otherwise the AIP controller configured by `aip`
    /// (and, for Cost-based, priced by `cost`).
    pub fn monitor(
        &self,
        strategy: Strategy,
        aip: &AipConfig,
        cost: CostModel,
    ) -> Arc<dyn ExecMonitor> {
        let eq = || PredicateIndex::build(&self.plan).eq;
        match strategy {
            Strategy::Baseline | Strategy::Magic => Arc::new(NoopMonitor),
            Strategy::FeedForward => FeedForward::new(eq(), aip.clone()),
            Strategy::CostBased => CostBased::new(eq(), aip.clone(), cost),
        }
    }
}

/// Execute a query under a strategy. `aip` configures both AIP algorithms;
/// it is ignored for Baseline and Magic.
pub fn run_query(
    spec: &QuerySpec,
    catalog: &Catalog,
    strategy: Strategy,
    options: ExecOptions,
    aip: &AipConfig,
) -> Result<QueryOutput> {
    Ok(run_query_dop(spec, catalog, strategy, options, aip, 1)?.0)
}

/// Execute a query under a strategy with `dop`-way hash-partition
/// parallelism (`sip-parallel`).
///
/// Drop-in sibling of [`run_query`]: plans with no safe parallel region —
/// and any run with `dop <= 1` — execute serially. Also returns the
/// [`PartitionMap`] when the partitioned path ran, for per-partition
/// metrics rollups ([`sip_engine::ExecMetrics::per_partition`]).
pub fn run_query_dop(
    spec: &QuerySpec,
    catalog: &Catalog,
    strategy: Strategy,
    options: ExecOptions,
    aip: &AipConfig,
    dop: u32,
) -> Result<(QueryOutput, Option<Arc<PartitionMap>>)> {
    let phys = Arc::new(spec.lower(catalog, strategy)?);
    let monitor = spec.monitor(strategy, aip, CostModel::default());
    if dop <= 1 {
        // Serial runs share the recovery path: with no retry policy in the
        // options this is exactly the old fail-fast `execute`.
        return Ok((execute_with_recovery(phys, monitor, options)?, None));
    }
    PartitionedExec::new(dop).execute(phys, monitor, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::Baseline.name(), "Baseline");
        assert_eq!(Strategy::ALL.len(), 4);
        assert_eq!(Strategy::CostBased.to_string(), "Cost-based");
    }
}
