//! The only file that calls into the `sip` library.
//!
//! Everything else in the benchmark speaks the types defined here, so an
//! engine refactor (one executor, one batch representation) edits this file
//! and nothing else. Only the facade surface is used: `data::generate`,
//! `queries::build_query`, `core::{run_query, run_query_dop}`,
//! `net::run_distributed`, `engine::execute_oracle`, the plan builder for
//! the scan-floor plans, and the columnar kernels — none of the row-layout
//! twins.

/// The workspace's one JSON string escaper, so the benchmark's files cannot
/// disagree with `BENCH_*.json` and the query profiles on how a string is
/// encoded.
pub use sip::common::json::escape_into as json_escape_into;
pub use sip::common::{Result, SipError};
pub use sip::core::Strategy;

use sip::common::{ColumnarBatch, DigestBuffer};
use sip::core::{run_query, run_query_dop, AipConfig, QuerySpec};
use sip::data::{Catalog, TpchConfig};
use sip::engine::{
    canonical, execute_oracle, DelayModel, ExecMetrics, ExecOptions, PhysKind, PhysPlan, TraceLevel,
};
use sip::expr::{eval_predicate_mask, CmpOp, Expr};
use sip::filter::BloomFilter;
use sip::net::{run_distributed, LinkSpec, RemoteConfig};
use sip::parallel::PartitionedExec;
use sip::plan::QueryBuilder;
use std::hint::black_box;
use std::time::Instant;

/// Rows per inter-operator batch and bounded-channel capacity: the
/// engine's defaults, pinned here so a changed default shows as a
/// benchmark change and not as a silent shift of every number.
const BATCH_SIZE: usize = 1024;
const CHANNEL_CAPACITY: usize = 16;

/// The table that is slow (`Source::Delayed`) or remote (`Source::Remote`),
/// as in the paper's Figs. 9/11 and §VI-C.
const FAR_TABLE: &str = "partsupp";

/// Names of the program's trace phases, in `Outcome::phase_nanos` order.
pub const PHASE_NAMES: [&str; 5] = [
    "compute",
    "tap_probe",
    "admit_build",
    "channel_send",
    "channel_recv",
];

/// A benchmark-side error.
pub fn bench_err(msg: impl Into<String>) -> SipError {
    SipError::Config(msg.into())
}

/// The generated catalog.
pub struct Data {
    catalog: Catalog,
}

impl Data {
    pub fn total_rows(&self) -> u64 {
        self.catalog.total_rows()
    }

    pub fn table_rows(&self, table: &str) -> Result<u64> {
        Ok(self.catalog.get(table)?.len() as u64)
    }
}

/// Uniform TPC-H-shaped data at scale factor `sf`.
pub fn generate(sf: f64, seed: u64) -> Result<Data> {
    let catalog = sip::data::generate(&TpchConfig {
        scale_factor: sf,
        seed,
        zipf_z: 0.0,
    })?;
    Ok(Data { catalog })
}

/// A logical query of the Table I catalog (or a scan-floor plan).
pub struct Query {
    spec: QuerySpec,
}

pub fn build_query(data: &Data, id: &str) -> Result<Query> {
    Ok(Query {
        spec: sip::queries::build_query(id, &data.catalog)?,
    })
}

/// A lowered physical plan, kept opaque.
pub struct Lowered(PhysPlan);

pub fn lower(data: &Data, query: &Query, strategy: Strategy) -> Result<Lowered> {
    Ok(Lowered(query.spec.lower(&data.catalog, strategy)?))
}

/// Expand a lowered plan for `dop` partitions (what `run_query_dop` does
/// before it executes).
pub fn partition(plan: &Lowered, dop: u32) -> Result<()> {
    PartitionedExec::new(dop)
        .plan(&plan.0)
        .map(|_| ())
        .map_err(|e| bench_err(format!("partition_plan: {e:?}")))
}

/// The reference result of `query` as a sorted multiset of row strings,
/// from the single-threaded oracle over the unrewritten plan. Every
/// strategy, dop and source must reproduce it (§III-B).
pub fn oracle(data: &Data, query: &Query) -> Result<Vec<String>> {
    let plan = lower(data, query, Strategy::Baseline)?;
    Ok(canonical(&execute_oracle(&plan.0)?))
}

/// Base-table rows the query's scans are offered: the sum of the lengths of
/// the tables its unrewritten plan scans (a table scanned twice counts
/// twice), before any predicate or AIP filter prunes them.
pub fn rows_offered(data: &Data, query: &Query) -> Result<u64> {
    let plan = lower(data, query, Strategy::Baseline)?;
    Ok(plan
        .0
        .nodes
        .iter()
        .map(|n| match &n.kind {
            PhysKind::Scan { table, .. } => table.len() as u64,
            _ => 0,
        })
        .sum())
}

/// Where a cell's data comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Every table local and immediately available.
    Local,
    /// `partsupp` behind the paper's delay model (100 ms initial, 5 ms per
    /// 1000 tuples).
    Delayed,
    /// `partsupp` at a remote site over a 100 Mbps link, AIP sets shipped
    /// to the site.
    Remote,
}

/// How to run a cell.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    pub strategy: Strategy,
    pub dop: u32,
    pub source: Source,
    /// Collect result rows at the sink (for the oracle comparison).
    pub collect_rows: bool,
    /// Record the program's own per-phase trace (`TraceLevel::Ops`).
    pub program_trace: bool,
    /// Price every AIP set out of reach (`ship_cost_per_byte = 1e15`), so a
    /// cost-based run pays for its decisions and builds nothing (§VI-A).
    pub decide_only: bool,
}

impl RunSpec {
    /// A plain timed run: rows not collected, no program trace, AIP priced
    /// as the paper does.
    pub fn timed(strategy: Strategy, dop: u32, source: Source) -> RunSpec {
        RunSpec {
            strategy,
            dop,
            source,
            collect_rows: false,
            program_trace: false,
            decide_only: false,
        }
    }
}

/// What one execution reported.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub rows_out: u64,
    /// Canonical result multiset; empty unless `collect_rows`.
    pub rows: Vec<String>,
    pub peak_state_bytes: u64,
    pub filters_injected: u64,
    /// Live filters that dropped at least one row.
    pub filters_useful: u64,
    pub probed: u64,
    pub dropped: u64,
    /// Footprint of the live filters.
    pub filter_bytes: u64,
    /// Rows routed to each partition (empty for serial runs).
    pub routed: Vec<u64>,
    /// Bytes that crossed the simulated link, both directions.
    pub shipped_bytes: u64,
    /// Time the link alone needs for `shipped_bytes`.
    pub link_floor_s: f64,
    /// Program-reported nanoseconds per trace phase (`program_trace` only).
    pub phase_nanos: [u64; 5],
}

fn outcome(metrics: &ExecMetrics, rows: &[sip::common::Row]) -> Outcome {
    let stats = &metrics.filter_stats;
    Outcome {
        rows_out: metrics.rows_out,
        rows: canonical(rows),
        peak_state_bytes: metrics.peak_state_bytes,
        filters_injected: metrics.filters_injected,
        filters_useful: stats.iter().filter(|f| f.dropped > 0).count() as u64,
        probed: stats.iter().map(|f| f.probed).sum(),
        dropped: stats.iter().map(|f| f.dropped).sum(),
        filter_bytes: stats.iter().map(|f| f.bytes).sum(),
        phase_nanos: metrics.phase_totals(),
        ..Outcome::default()
    }
}

/// Execute one cell.
pub fn run(data: &Data, query: &Query, run: RunSpec) -> Result<Outcome> {
    let mut options = ExecOptions::validated(BATCH_SIZE, CHANNEL_CAPACITY)?;
    options.collect_rows = run.collect_rows;
    if run.program_trace {
        options = options.with_trace(TraceLevel::Ops);
    }
    if run.source == Source::Delayed {
        options = options.with_delay(FAR_TABLE, DelayModel::paper_delayed());
    }
    let mut aip = AipConfig::paper();
    if run.decide_only {
        aip.ship_cost_per_byte = 1e15;
    }
    let (spec, catalog) = (&query.spec, &data.catalog);
    if run.source == Source::Remote {
        if run.dop > 1 {
            return Err(bench_err("remote cells run at dop 1"));
        }
        let link = LinkSpec::lan_100mbps();
        let remote = RemoteConfig::new(FAR_TABLE, link);
        let done = run_distributed(spec, catalog, run.strategy, options, &aip, &remote)?;
        let shipped_bytes = done.net.total_bytes();
        return Ok(Outcome {
            shipped_bytes,
            link_floor_s: link.transfer_time(shipped_bytes).as_secs_f64(),
            ..outcome(&done.output.metrics, &done.output.rows)
        });
    }
    if run.dop > 1 {
        let (out, map) = run_query_dop(spec, catalog, run.strategy, options, &aip, run.dop)?;
        let routed = map
            .map(|m| out.metrics.per_partition(&m))
            .unwrap_or_default()
            .iter()
            .map(|p| p.rows_routed_in)
            .collect();
        return Ok(Outcome {
            routed,
            ..outcome(&out.metrics, &out.rows)
        });
    }
    let out = run_query(spec, catalog, run.strategy, options, &aip)?;
    Ok(outcome(&out.metrics, &out.rows))
}

/// The two scan-floor plans over LINEITEM, built with the plan builder:
/// Scan → sink, and Scan → Filter → sink (`l_quantity < 25`, about half the
/// rows). They bound from below what any query that reads LINEITEM through
/// this engine can cost per row.
pub fn floor_queries(data: &Data) -> Result<[Query; 2]> {
    let cols = ["l_partkey", "l_quantity", "l_extendedprice"];
    let mut q = QueryBuilder::new(&data.catalog);
    let scan = q.scan("lineitem", "l", &cols)?;
    let scan_only = QuerySpec::new(scan.into_plan(), q.into_attrs())?;

    let mut q = QueryBuilder::new(&data.catalog);
    let scan = q.scan("lineitem", "l", &cols)?;
    let pred = scan.col("l_quantity")?.cmp(CmpOp::Lt, Expr::lit(25.0f64));
    let filtered = q.filter(scan, pred);
    let scan_filter = QuerySpec::new(filtered.into_plan(), q.into_attrs())?;
    Ok([Query { spec: scan_only }, Query { spec: scan_filter }])
}

/// Throughput of the columnar kernels the engine's operators are built
/// from, in millions of rows (or keys) per second.
#[derive(Clone, Copy, Debug)]
pub struct KernelRates {
    pub digest_mrows_per_s: f64,
    pub gather_mrows_per_s: f64,
    pub filter_mask_mrows_per_s: f64,
    pub bloom_build_mkeys_per_s: f64,
    pub bloom_probe_mkeys_per_s: f64,
}

/// Median over `REPS` timings of `work`, as millions of `items` per second.
fn mrate(items: usize, mut work: impl FnMut()) -> f64 {
    const REPS: usize = 7;
    let secs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            work();
            t.elapsed().as_secs_f64()
        })
        .collect();
    items as f64 / crate::stats::median(&secs).max(1e-9) / 1e6
}

/// `table`'s columns cut into engine-sized batches (metadata-only slices).
fn batches(table: &ColumnarBatch) -> Vec<ColumnarBatch> {
    (0..table.len())
        .step_by(BATCH_SIZE)
        .map(|at| table.slice(at, BATCH_SIZE.min(table.len() - at)))
        .collect()
}

/// Time the kernels in tight loops over the catalog's own columns, batch
/// by batch as the operators call them.
pub fn kernel_rates(data: &Data) -> Result<KernelRates> {
    let lineitem = data.catalog.get("lineitem")?;
    let key = [lineitem.schema().index_of("l_partkey")?];
    let li = batches(lineitem.columns());
    let n = lineitem.len();

    let mut buf = DigestBuffer::default();
    let digest = mrate(n, || {
        for b in &li {
            buf.compute_cols(b, &key);
            black_box(buf.digests());
        }
    });

    let every_other: Vec<u32> = (0..BATCH_SIZE as u32).step_by(2).collect();
    let gather = mrate(n / 2, || {
        for b in &li {
            let sel = &every_other[..b.len().div_ceil(2)];
            black_box(b.gather(sel));
        }
    });

    // The Q2A predicate on PART.
    let part = data.catalog.get("part")?;
    let brand = part.schema().index_of("p_brand")?;
    let container = part.schema().index_of("p_container")?;
    let pred = Expr::Col(brand)
        .eq(Expr::lit("Brand#34"))
        .and(Expr::Col(container).eq(Expr::lit("MED CAN")));
    let pb = batches(part.columns());
    let mut keep = Vec::new();
    let mut vectorized = true;
    let filter_mask = mrate(part.len(), || {
        for b in &pb {
            vectorized &= eval_predicate_mask(&pred, b, &mut keep);
            black_box(&keep);
        }
    });
    if !vectorized {
        return Err(bench_err("the Q2A predicate has no columnar kernel"));
    }

    let mut digests = Vec::with_capacity(n);
    for b in &li {
        buf.compute_cols(b, &key);
        digests.extend_from_slice(buf.digests());
    }
    let aip = AipConfig::paper();
    let mut bloom = BloomFilter::with_fpr(n, aip.fpr, aip.n_hashes);
    let bloom_build = mrate(n, || {
        bloom = BloomFilter::with_fpr(n, aip.fpr, aip.n_hashes);
        for &d in &digests {
            bloom.insert(d);
        }
    });
    let bloom_probe = mrate(n, || {
        let hits = digests.iter().filter(|&&d| bloom.contains(d)).count();
        black_box(hits);
    });

    Ok(KernelRates {
        digest_mrows_per_s: digest,
        gather_mrows_per_s: gather,
        filter_mask_mrows_per_s: filter_mask,
        bloom_build_mkeys_per_s: bloom_build,
        bloom_probe_mkeys_per_s: bloom_probe,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_the_programs() {
        let names = sip::common::trace::Phase::ALL.map(|p| p.name());
        assert_eq!(names, PHASE_NAMES);
    }
}
