//! Skew suite: Zipf-heavy keys through shuffle meshes.
//!
//! Shuffled joins route by key hash only, so a Zipf-hot key lands on one
//! reader. Two layers of guarantees:
//!
//! 1. **Conservation under hash routing**: hot keys are neither lost nor
//!    duplicated, per-partition counts sum to the serial total, and the
//!    imbalance is real (the `routed` max/mean sits above 1).
//! 2. **AIP correctness over skewed meshes**: admit-batch parity
//!    (`sip_engine::testkit::install_admit_parity`) at dop ∈ {2, 4}, and
//!    full differential runs under the FeedForward/CostBased controllers
//!    with delayed dimensions. Rare two-row keys reach only some
//!    partitions, so per-partition scoped filters and the plan-wide
//!    OR-merged union both meet keys that a partition never saw.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sip_common::{DataType, Field, Row, Schema, Value};
use sip_data::{Catalog, Table, Zipf};
use sip_engine::{
    canonical, execute_ctx, execute_oracle, lower, DelayModel, ExecContext, ExecMonitor,
    ExecOptions, NoopMonitor, PhysKind, PhysPlan,
};
use sip_parallel::partition_plan;
use sip_plan::{PredicateIndex, QueryBuilder};
use std::sync::Arc;
use std::time::Duration;

const KEYS: u64 = 40;
const FACT_ROWS: usize = 4000;
/// Rare `fb` keys carrying exactly two rows each: each lands on at most
/// two partitions, so some partition's slice of the stream misses them
/// entirely — the configuration a scoped AIP filter must not prune.
const RARE_KEYS: std::ops::Range<i64> = 101..109;

/// fact(fa, fb, v) with both keys Zipf(1.5)-skewed plus a two-row tail,
/// and dimensions t2(ga), t3(hb), t4(kb) covering the full key domain.
fn skewed_catalog() -> Catalog {
    let zipf = Zipf::new(KEYS, 1.5);
    let mut rng = StdRng::seed_from_u64(0xD1CE);
    let int = |n: &str| Field::new(n, DataType::Int);
    let mut facts = Vec::with_capacity(FACT_ROWS + 2 * RARE_KEYS.clone().count());
    for i in 0..FACT_ROWS {
        let fa = zipf.sample(&mut rng) as i64;
        let fb = zipf.sample(&mut rng) as i64;
        facts.push(Row::new(vec![
            Value::Int(fa),
            Value::Int(fb),
            Value::Int(i as i64),
        ]));
    }
    for (i, k) in RARE_KEYS.enumerate() {
        for copy in 0..2 {
            let fa = zipf.sample(&mut rng) as i64;
            facts.push(Row::new(vec![
                Value::Int(fa),
                Value::Int(k),
                Value::Int((FACT_ROWS + 2 * i + copy) as i64),
            ]));
        }
    }
    let dim = |name: &str, col: &str| {
        Table::new(
            name,
            Schema::new(vec![Field::new(col, DataType::Int)]),
            vec![],
            vec![],
            (1..=KEYS as i64)
                .chain(RARE_KEYS)
                .map(|k| Row::new(vec![Value::Int(k)]))
                .collect(),
        )
        .unwrap()
    };
    let mut c = Catalog::new();
    c.add(
        Table::new(
            "fact",
            Schema::new(vec![int("fa"), int("fb"), int("v")]),
            vec![],
            vec![],
            facts,
        )
        .unwrap(),
    );
    c.add(dim("t2", "ga"));
    c.add(dim("t3", "hb"));
    c.add(dim("t4", "kb"));
    c
}

/// (fact ⋈ t2 on fa) ⋈ t3 on fb: the first join co-locates on fa's class,
/// the second is off-class, so the joined stream — keyed by the Zipf-heavy
/// `fb` — must cross a shuffle mesh.
fn two_class_plan(c: &Catalog) -> PhysPlan {
    let mut q = QueryBuilder::new(c);
    let f = q.scan("fact", "f", &["fa", "fb", "v"]).unwrap();
    let g = q.scan("t2", "g", &["ga"]).unwrap();
    let j1 = q.join(f, g, &[("f.fa", "g.ga")]).unwrap();
    let h = q.scan("t3", "h", &["hb"]).unwrap();
    let j2 = q.join(j1, h, &[("f.fb", "h.hb")]).unwrap();
    let plan = j2.into_plan();
    lower(&plan, q.into_attrs(), c).unwrap()
}

/// Two joins on the Zipf-heavy `fb`: the shuffled join's output feeds a
/// *second* keyed join on the same attribute, so AIP sets built from one
/// partition's slice are injected at the second join's dimension.
fn double_fb_spec(c: &Catalog) -> (sip_plan::LogicalPlan, sip_plan::AttrCatalog) {
    let mut q = QueryBuilder::new(c);
    let f = q.scan("fact", "f", &["fa", "fb", "v"]).unwrap();
    let g = q.scan("t2", "g", &["ga"]).unwrap();
    let j1 = q.join(f, g, &[("f.fa", "g.ga")]).unwrap();
    let h = q.scan("t3", "h", &["hb"]).unwrap();
    let j2 = q.join(j1, h, &[("f.fb", "h.hb")]).unwrap();
    let t = q.scan("t4", "t", &["kb"]).unwrap();
    let j3 = q.join(j2, t, &[("f.fb", "t.kb")]).unwrap();
    (j3.into_plan(), q.into_attrs())
}

#[test]
fn zipf_keys_survive_the_shuffle_exactly_once() {
    let c = skewed_catalog();
    let phys = two_class_plan(&c);
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for dop in [2u32, 4, 8] {
        let (expanded, map) = partition_plan(&phys, dop).unwrap();
        let writers: Vec<_> = expanded
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, PhysKind::ShuffleWrite { .. }))
            .map(|n| n.id)
            .collect();
        let readers: Vec<_> = expanded
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, PhysKind::ShuffleRead { .. }))
            .map(|n| n.id)
            .collect();
        assert!(
            !writers.is_empty(),
            "no shuffle at dop {dop}:\n{}",
            expanded.display()
        );
        let ctx = ExecContext::new_partitioned(
            Arc::clone(&expanded),
            ExecOptions::default(),
            Arc::clone(&map),
        );
        let out = execute_ctx(ctx, Arc::new(NoopMonitor)).unwrap();
        // Neither lost nor duplicated: the multiset equals serial exactly.
        assert_eq!(canonical(&out.rows), expected, "dop {dop} diverged");

        // Conservation across the mesh: rows entering the writers equal
        // rows leaving the readers (no taps installed, so nothing may be
        // dropped in between).
        let rows_in: u64 = writers
            .iter()
            .map(|&w| out.metrics.per_op[w.index()].rows_in[0])
            .sum();
        let rows_out: u64 = readers
            .iter()
            .map(|&r| out.metrics.per_op[r.index()].rows_out)
            .sum();
        assert_eq!(rows_in, rows_out, "dop {dop}: mesh lost or duplicated rows");

        // The per-partition metric split sums to the serial total of the
        // shuffled stream (the fact ⋈ t2 join output).
        let serial_j1_rows = {
            let mut q = QueryBuilder::new(&c);
            let f = q.scan("fact", "f", &["fa", "fb", "v"]).unwrap();
            let g = q.scan("t2", "g", &["ga"]).unwrap();
            let j1 = q.join(f, g, &[("f.fa", "g.ga")]).unwrap();
            let p = lower(&j1.into_plan(), q.into_attrs(), &c).unwrap();
            execute_oracle(&p).unwrap().len() as u64
        };
        assert_eq!(
            rows_in, serial_j1_rows,
            "dop {dop}: per-partition counts do not sum to the serial total"
        );

        // The skew is real: the writers' per-destination `routed` counts
        // put strictly more than an even share on one reader (Zipf s=1.5
        // concentrates ~38% of rows on the hot key), so the equality above
        // exercised an unbalanced mesh.
        let mut routed = vec![0u64; dop as usize];
        for &w in &writers {
            for (slot, n) in routed.iter_mut().zip(&out.metrics.per_op[w.index()].routed) {
                *slot += n;
            }
        }
        assert_eq!(routed.iter().sum::<u64>(), rows_out, "dop {dop}");
        let max = *routed.iter().max().unwrap() as f64;
        let mean = rows_out as f64 / dop as f64;
        assert!(
            max / mean > 1.0,
            "dop {dop}: expected a skewed partition split, got {routed:?}"
        );

        // Per-destination routed counts roll up into the partition report
        // and agree with the reader totals.
        let rollup = out.metrics.per_partition(&map);
        assert_eq!(rollup.len(), dop as usize);
        let routed_total: u64 = rollup.iter().map(|s| s.rows_routed_in).sum();
        assert!(
            routed_total >= rows_out,
            "dop {dop}: routed rollup {routed_total} misses mesh traffic {rows_out}"
        );
    }
}

/// Admit-batch AIP parity over Zipf-skewed meshes: at dop ∈ {2, 4}, the
/// self-checking collectors at every stateful input of the shuffled plan
/// must see byte-identical batch-vs-row AIP sets and exactly equal
/// `aip_probed`/`aip_dropped` counters, and the result multiset must
/// equal the serial oracle.
#[test]
fn aip_parity_through_zipf_meshes() {
    let c = skewed_catalog();
    let (plan, attrs) = double_fb_spec(&c);
    let phys = Arc::new(lower(&plan, attrs, &c).unwrap());
    let expected = canonical(&execute_oracle(&phys).unwrap());
    for dop in [2u32, 4] {
        for batch in [64usize, 1024] {
            let (expanded, map) = partition_plan(&phys, dop).unwrap();
            assert!(
                expanded
                    .nodes
                    .iter()
                    .any(|n| matches!(&n.kind, PhysKind::ShuffleWrite { .. })),
                "no shuffle mesh at dop {dop}:\n{}",
                expanded.display()
            );
            let opts = ExecOptions::validated(batch, 2).unwrap();
            let ctx = ExecContext::new_partitioned(Arc::clone(&expanded), opts, map);
            let (outcome, installed) = sip_engine::testkit::install_admit_parity(&ctx, &expanded);
            assert!(installed >= 2, "dop {dop}: too few stateful inputs");
            let out = execute_ctx(Arc::clone(&ctx), Arc::new(NoopMonitor)).unwrap();
            assert_eq!(
                canonical(&out.rows),
                expected,
                "dop {dop} batch {batch}: shuffled plan diverged from the serial oracle"
            );
            let errs = outcome.errors.lock().unwrap();
            assert!(
                errs.is_empty(),
                "dop {dop} batch {batch}:\n{}",
                errs.join("\n")
            );
            assert_eq!(*outcome.finished.lock().unwrap(), installed);
        }
    }
}

/// Full differential with the AIP controllers live over Zipf-skewed
/// meshes: FeedForward and CostBased inject partition-scoped filters and
/// their OR-merged unions (the rare keys miss some partitions; the
/// delayed dimensions keep injection sites alive), and the result must
/// still match the serial oracle exactly.
#[test]
fn controllers_preserve_zipf_multisets() {
    let c = skewed_catalog();
    let (plan, attrs) = double_fb_spec(&c);
    let phys = Arc::new(lower(&plan, attrs.clone(), &c).unwrap());
    let expected = canonical(&execute_oracle(&phys).unwrap());
    let eq = PredicateIndex::build(&plan).eq;
    let slow_dim = DelayModel {
        initial: Duration::from_millis(120),
        every_n: 4,
        pause: Duration::from_millis(2),
    };
    for dop in [2u32, 4] {
        for controller in ["ff", "cb"] {
            let (expanded, map) = partition_plan(&phys, dop).unwrap();
            let mut opts = ExecOptions::validated(256, 4).unwrap();
            opts = opts
                .with_delay("t", slow_dim.clone())
                .with_delay("h", slow_dim.clone());
            let ctx = ExecContext::new_partitioned(Arc::clone(&expanded), opts, map);
            let monitor: Arc<dyn ExecMonitor> = match controller {
                "ff" => sip_core::FeedForward::new(eq.clone(), sip_core::AipConfig::paper()),
                _ => sip_core::CostBased::new(
                    eq.clone(),
                    sip_core::AipConfig::hash_sets(),
                    sip_optimizer::CostModel::default(),
                ),
            };
            let out = execute_ctx(ctx, monitor).unwrap();
            assert_eq!(
                canonical(&out.rows),
                expected,
                "{controller} dop {dop}: run with live controllers diverged"
            );
        }
    }
}
