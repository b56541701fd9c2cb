//! Execution entry points for partition-parallel plans.

use crate::partition::{partition_plan_cfg, PartitionError};
use crate::shuffle::PartitionConfig;
use sip_common::{Result, SipError};
use sip_engine::{
    execute_ctx, execute_with_recovery, run_with_recovery, ExecContext, ExecMonitor, ExecOptions,
    PartitionMap, PhysPlan, QueryOutput,
};
use std::sync::Arc;

/// Runs a serial [`PhysPlan`] with intra-operator hash-partition
/// parallelism.
///
/// The same plan the single-threaded entry points accept is expanded to
/// `dop` partitions ([`partition_plan`]) and handed to the ordinary
/// threaded executor; plans with no safe parallel region transparently fall
/// back to serial execution, so `PartitionedExec::new(n).execute(...)` is
/// always a drop-in replacement for [`sip_engine::execute`].
#[derive(Clone, Debug)]
pub struct PartitionedExec {
    dop: u32,
    config: PartitionConfig,
}

impl PartitionedExec {
    /// An executor with `dop` partitions (`0` and `1` mean serial) and the
    /// default [`PartitionConfig`] (shuffling enabled).
    pub fn new(dop: u32) -> Self {
        Self::with_config(dop, PartitionConfig::default())
    }

    /// An executor with explicit expansion knobs (shuffle on/off,
    /// broadcast threshold, cost model).
    pub fn with_config(dop: u32, config: PartitionConfig) -> Self {
        PartitionedExec {
            dop: dop.max(1),
            config,
        }
    }

    /// The configured degree of parallelism.
    pub fn dop(&self) -> u32 {
        self.dop
    }

    /// Expand `plan` for this executor's `dop`.
    ///
    /// Exposed separately so callers (benches, EXPLAIN) can inspect the
    /// expanded plan and [`PartitionMap`] without running it.
    pub fn plan(
        &self,
        plan: &PhysPlan,
    ) -> std::result::Result<(Arc<PhysPlan>, Arc<PartitionMap>), PartitionError> {
        partition_plan_cfg(plan, self.dop, &self.config)
    }

    /// Execute `plan`, partition-parallel when possible, serial otherwise.
    /// Returns the output together with the [`PartitionMap`] actually used
    /// (`None` = the serial fallback ran). An invalid [`PartitionConfig`]
    /// is a configuration error, not a reason to fall back.
    pub fn execute(
        &self,
        plan: Arc<PhysPlan>,
        monitor: Arc<dyn ExecMonitor>,
        options: ExecOptions,
    ) -> Result<(QueryOutput, Option<Arc<PartitionMap>>)> {
        match partition_plan_cfg(&plan, self.dop, &self.config) {
            Ok((expanded, map)) => {
                // Run-level recovery scope: the expanded plan and partition
                // map are reused verbatim across attempts (expansion is
                // deterministic), so a retried run replays the exact same
                // physical plan from its sources.
                let out = run_with_recovery(options, |opts| {
                    let ctx =
                        ExecContext::new_partitioned(Arc::clone(&expanded), opts, Arc::clone(&map));
                    execute_ctx(ctx, Arc::clone(&monitor))
                })?;
                Ok((out, Some(map)))
            }
            Err(PartitionError::InvalidConfig(why)) => Err(SipError::Config(why.into())),
            Err(_) => Ok((execute_with_recovery(plan, monitor, options)?, None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_data::{generate, TpchConfig};
    use sip_engine::{canonical, execute_oracle, lower, NoopMonitor};
    use sip_expr::AggFunc;
    use sip_plan::QueryBuilder;

    #[test]
    fn partitioned_execution_matches_serial() {
        let c = generate(&TpchConfig {
            scale_factor: 0.004,
            seed: 23,
            zipf_z: 0.5,
        })
        .unwrap();
        let mut q = QueryBuilder::new(&c);
        let p = q.scan("part", "p", &["p_partkey", "p_size"]).unwrap();
        let ps = q
            .scan("partsupp", "ps", &["ps_partkey", "ps_availqty"])
            .unwrap();
        let qty = ps.col("ps_availqty").unwrap();
        let agg = q
            .aggregate(ps, &["ps_partkey"], &[(AggFunc::Sum, qty, "avail")])
            .unwrap();
        let j = q.join(p, agg, &[("p.p_partkey", "ps.ps_partkey")]).unwrap();
        let plan = j.into_plan();
        let phys = Arc::new(lower(&plan, q.into_attrs(), &c).unwrap());
        let expected = canonical(&execute_oracle(&phys).unwrap());

        for dop in [1u32, 2, 4] {
            let exec = PartitionedExec::new(dop);
            let (out, map) = exec
                .execute(
                    Arc::clone(&phys),
                    Arc::new(NoopMonitor),
                    ExecOptions::default(),
                )
                .unwrap();
            assert_eq!(canonical(&out.rows), expected, "dop {dop}");
            if dop > 1 {
                let map = map.expect("partitioned path taken");
                // Per-partition metrics rollup covers every partition.
                let rollup = out.metrics.per_partition(&map);
                assert_eq!(rollup.len(), dop as usize);
                assert!(rollup.iter().all(|s| s.rows_out > 0));
            } else {
                assert!(map.is_none(), "dop 1 runs serial");
            }
        }
    }
}
