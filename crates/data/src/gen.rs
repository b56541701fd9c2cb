//! Deterministic TPC-H-shaped data generation.
//!
//! Mirrors dbgen's schema, key structure, and value distributions closely
//! enough that the paper's predicates (`p_size = 1`, `p_type like '%TIN'`,
//! `r_name = 'AFRICA'`, `p_brand = 'Brand#34'`, ...) select comparable
//! fractions of the data. The scale factor is continuous: `sf = 1.0`
//! corresponds to the classic 1 GB row counts.
//!
//! The skewed mode reproduces the paper's "TPC-D data set ... created by the
//! Microsoft skewed data generator with a Zipfian skew factor z of 0.5"
//! (§VI): foreign-key references and several value columns are drawn from
//! Zipf(z) instead of uniform.

use crate::table::{Catalog, ForeignKey, Table, TableBuilder};
use crate::text;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sip_common::{DataType, Date, Field, Result, Schema, Value};

/// Configuration for one generated data set.
#[derive(Clone, Debug)]
pub struct TpchConfig {
    /// Scale factor; 1.0 = classic TPC-H 1 GB row counts.
    pub scale_factor: f64,
    /// RNG seed — same seed, same data, bit for bit.
    pub seed: u64,
    /// Zipf skew factor; 0.0 = uniform TPC-H, 0.5 = the paper's skewed TPC-D.
    pub zipf_z: f64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            scale_factor: 0.01,
            seed: 0xDB_00_5E_ED,
            zipf_z: 0.0,
        }
    }
}

impl TpchConfig {
    /// Uniform data at the given scale.
    pub fn uniform(scale_factor: f64) -> Self {
        TpchConfig {
            scale_factor,
            ..Default::default()
        }
    }

    /// Skewed data at the given scale with the paper's z = 0.5.
    pub fn skewed(scale_factor: f64) -> Self {
        TpchConfig {
            scale_factor,
            zipf_z: 0.5,
            ..Default::default()
        }
    }

    fn scaled(&self, base: u64) -> u64 {
        ((base as f64 * self.scale_factor).round() as u64).max(1)
    }
}

/// First order date in the generated range.
pub const ORDER_DATE_MIN: &str = "1992-01-01";
/// Number of days orders span (through 1998-08-02, as in dbgen).
pub const ORDER_DATE_SPAN: i32 = 2405;

/// dbgen's deterministic retail-price formula, shared by `part` generation
/// and `lineitem`'s extended price so the two stay consistent.
pub fn retail_price(partkey: i64) -> f64 {
    (90_000 + ((partkey / 10) % 20_001) + 100 * (partkey % 1_000)) as f64 / 100.0
}

/// Generate the full eight-table catalog.
pub fn generate(config: &TpchConfig) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    let n_parts = config.scaled(200_000) as i64;
    let n_suppliers = config.scaled(10_000) as i64;
    let n_customers = config.scaled(150_000) as i64;
    let n_orders = config.scaled(1_500_000) as i64;

    catalog.add(gen_region()?);
    catalog.add(gen_nation()?);
    catalog.add(gen_supplier(config, n_suppliers)?);
    catalog.add(gen_part(config, n_parts)?);
    catalog.add(gen_partsupp(config, n_parts, n_suppliers)?);
    catalog.add(gen_customer(config, n_customers)?);
    let (orders, lineitem) =
        gen_orders_lineitem(config, n_orders, n_customers, n_parts, n_suppliers)?;
    catalog.add(orders);
    catalog.add(lineitem);
    Ok(catalog)
}

fn rng_for(config: &TpchConfig, stream: u64) -> StdRng {
    // Independent stream per table so adding a table never perturbs others.
    StdRng::seed_from_u64(config.seed.wrapping_mul(0x9E37_79B9).wrapping_add(stream))
}

/// Draw a key in `1..=n`, Zipf-skewed if configured. The rank is scattered
/// by a fixed permutation-ish stride so that the popular keys are not simply
/// `1, 2, 3, ...` (matching the skewed generator, which skews value
/// frequencies, not key order).
fn skewed_key(rng: &mut StdRng, zipf: Option<&Zipf>, n: i64) -> i64 {
    match zipf {
        None => rng.gen_range(1..=n),
        Some(z) => {
            let rank = z.sample(rng) as i64; // 1..=n
                                             // Map rank r to key (r * stride) mod n + 1 with stride coprime-ish.
            let stride = (n / 3).max(1) | 1;
            ((rank - 1) * stride).rem_euclid(n) + 1
        }
    }
}

fn gen_region() -> Result<Table> {
    let schema = Schema::new(vec![
        Field::new("r_regionkey", DataType::Int),
        Field::new("r_name", DataType::Str),
        Field::new("r_comment", DataType::Str),
    ]);
    let mut tb = TableBuilder::new(schema);
    for (i, name) in text::REGIONS.iter().enumerate() {
        tb.push(vec![
            Value::Int(i as i64),
            Value::str(*name),
            Value::str("region comment"),
        ]);
    }
    tb.finish("region", vec![0], vec![])
}

fn gen_nation() -> Result<Table> {
    let schema = Schema::new(vec![
        Field::new("n_nationkey", DataType::Int),
        Field::new("n_name", DataType::Str),
        Field::new("n_regionkey", DataType::Int),
        Field::new("n_comment", DataType::Str),
    ]);
    let mut tb = TableBuilder::new(schema);
    for (i, (name, region)) in text::NATIONS.iter().enumerate() {
        tb.push(vec![
            Value::Int(i as i64),
            Value::str(*name),
            Value::Int(*region as i64),
            Value::str("nation comment"),
        ]);
    }
    tb.finish(
        "nation",
        vec![0],
        vec![ForeignKey {
            columns: vec![2],
            parent_table: "region".into(),
        }],
    )
}

fn gen_supplier(config: &TpchConfig, n: i64) -> Result<Table> {
    let mut rng = rng_for(config, 1);
    let schema = Schema::new(vec![
        Field::new("s_suppkey", DataType::Int),
        Field::new("s_name", DataType::Str),
        Field::new("s_address", DataType::Str),
        Field::new("s_nationkey", DataType::Int),
        Field::new("s_phone", DataType::Str),
        Field::new("s_acctbal", DataType::Float),
        Field::new("s_comment", DataType::Str),
    ]);
    let mut tb = TableBuilder::new(schema);
    for k in 1..=n {
        let nation = rng.gen_range(0..25i64);
        tb.push(vec![
            Value::Int(k),
            Value::str(format!("Supplier#{k:09}")),
            Value::str(text::address(&mut rng)),
            Value::Int(nation),
            Value::str(text::phone(&mut rng, nation as usize)),
            Value::Float(rng.gen_range(-999.99..9999.99)),
            Value::str(text::comment(&mut rng)),
        ]);
    }
    tb.finish(
        "supplier",
        vec![0],
        vec![ForeignKey {
            columns: vec![3],
            parent_table: "nation".into(),
        }],
    )
}

fn gen_part(config: &TpchConfig, n: i64) -> Result<Table> {
    let mut rng = rng_for(config, 2);
    let size_zipf = (config.zipf_z > 0.0).then(|| Zipf::new(50, config.zipf_z));
    let schema = Schema::new(vec![
        Field::new("p_partkey", DataType::Int),
        Field::new("p_name", DataType::Str),
        Field::new("p_mfgr", DataType::Str),
        Field::new("p_brand", DataType::Str),
        Field::new("p_type", DataType::Str),
        Field::new("p_size", DataType::Int),
        Field::new("p_container", DataType::Str),
        Field::new("p_retailprice", DataType::Float),
        Field::new("p_comment", DataType::Str),
    ]);
    let mut tb = TableBuilder::new(schema);
    for k in 1..=n {
        let size = match &size_zipf {
            Some(z) => z.sample(&mut rng) as i64,
            None => rng.gen_range(1..=50),
        };
        tb.push(vec![
            Value::Int(k),
            Value::str(text::part_name(&mut rng)),
            Value::str(format!("Manufacturer#{}", rng.gen_range(1..=5))),
            Value::str(text::brand(&mut rng)),
            Value::str(text::part_type(&mut rng)),
            Value::Int(size),
            Value::str(text::container(&mut rng)),
            Value::Float(retail_price(k)),
            Value::str(text::comment(&mut rng)),
        ]);
    }
    tb.finish("part", vec![0], vec![])
}

fn gen_partsupp(config: &TpchConfig, n_parts: i64, n_suppliers: i64) -> Result<Table> {
    let mut rng = rng_for(config, 3);
    let schema = Schema::new(vec![
        Field::new("ps_partkey", DataType::Int),
        Field::new("ps_suppkey", DataType::Int),
        Field::new("ps_availqty", DataType::Int),
        Field::new("ps_supplycost", DataType::Float),
        Field::new("ps_comment", DataType::Str),
    ]);
    let qty_zipf = (config.zipf_z > 0.0).then(|| Zipf::new(9_999, config.zipf_z));
    let mut tb = TableBuilder::new(schema);
    for p in 1..=n_parts {
        // dbgen: each part is stocked by 4 suppliers at spread positions.
        for i in 0..4i64 {
            let s = (p + i * (n_suppliers / 4 + 1)) % n_suppliers + 1;
            let qty = match &qty_zipf {
                Some(z) => z.sample(&mut rng) as i64,
                None => rng.gen_range(1..=9_999),
            };
            tb.push(vec![
                Value::Int(p),
                Value::Int(s),
                Value::Int(qty),
                Value::Float(rng.gen_range(1.0..1000.0)),
                Value::str(text::comment(&mut rng)),
            ]);
        }
    }
    tb.finish(
        "partsupp",
        vec![0, 1],
        vec![
            ForeignKey {
                columns: vec![0],
                parent_table: "part".into(),
            },
            ForeignKey {
                columns: vec![1],
                parent_table: "supplier".into(),
            },
        ],
    )
}

fn gen_customer(config: &TpchConfig, n: i64) -> Result<Table> {
    let mut rng = rng_for(config, 4);
    let schema = Schema::new(vec![
        Field::new("c_custkey", DataType::Int),
        Field::new("c_name", DataType::Str),
        Field::new("c_address", DataType::Str),
        Field::new("c_nationkey", DataType::Int),
        Field::new("c_phone", DataType::Str),
        Field::new("c_acctbal", DataType::Float),
        Field::new("c_mktsegment", DataType::Str),
        Field::new("c_comment", DataType::Str),
    ]);
    let mut tb = TableBuilder::new(schema);
    for k in 1..=n {
        let nation = rng.gen_range(0..25i64);
        tb.push(vec![
            Value::Int(k),
            Value::str(format!("Customer#{k:09}")),
            Value::str(text::address(&mut rng)),
            Value::Int(nation),
            Value::str(text::phone(&mut rng, nation as usize)),
            Value::Float(rng.gen_range(-999.99..9999.99)),
            Value::str(text::SEGMENTS[rng.gen_range(0..text::SEGMENTS.len())]),
            Value::str(text::comment(&mut rng)),
        ]);
    }
    tb.finish(
        "customer",
        vec![0],
        vec![ForeignKey {
            columns: vec![3],
            parent_table: "nation".into(),
        }],
    )
}

/// The `orders` schema.
pub fn orders_schema() -> Schema {
    Schema::new(vec![
        Field::new("o_orderkey", DataType::Int),
        Field::new("o_custkey", DataType::Int),
        Field::new("o_orderstatus", DataType::Str),
        Field::new("o_totalprice", DataType::Float),
        Field::new("o_orderdate", DataType::Date),
        Field::new("o_orderpriority", DataType::Str),
        Field::new("o_clerk", DataType::Str),
        Field::new("o_shippriority", DataType::Int),
        Field::new("o_comment", DataType::Str),
    ])
}

/// The `lineitem` schema.
pub fn lineitem_schema() -> Schema {
    Schema::new(vec![
        Field::new("l_orderkey", DataType::Int),
        Field::new("l_partkey", DataType::Int),
        Field::new("l_suppkey", DataType::Int),
        Field::new("l_linenumber", DataType::Int),
        Field::new("l_quantity", DataType::Int),
        Field::new("l_extendedprice", DataType::Float),
        Field::new("l_discount", DataType::Float),
        Field::new("l_tax", DataType::Float),
        Field::new("l_returnflag", DataType::Str),
        Field::new("l_linestatus", DataType::Str),
        Field::new("l_shipdate", DataType::Date),
        Field::new("l_commitdate", DataType::Date),
        Field::new("l_receiptdate", DataType::Date),
        Field::new("l_shipinstruct", DataType::Str),
        Field::new("l_shipmode", DataType::Str),
        Field::new("l_comment", DataType::Str),
    ])
}

/// The coupled `orders` + `lineitem` record generator: one RNG stream,
/// one order (with 1–7 lines) per call.
struct OrderGen {
    rng: StdRng,
    base_date: Date,
    n_customers: i64,
    n_parts: i64,
    n_suppliers: i64,
    cust_zipf: Option<Zipf>,
    part_zipf: Option<Zipf>,
    supp_zipf: Option<Zipf>,
    qty_zipf: Option<Zipf>,
}

impl OrderGen {
    fn new(
        config: &TpchConfig,
        n_customers: i64,
        n_parts: i64,
        n_suppliers: i64,
    ) -> Result<OrderGen> {
        Ok(OrderGen {
            rng: rng_for(config, 5),
            base_date: Date::parse(ORDER_DATE_MIN)?,
            n_customers,
            n_parts,
            n_suppliers,
            cust_zipf: (config.zipf_z > 0.0).then(|| Zipf::new(n_customers as u64, config.zipf_z)),
            part_zipf: (config.zipf_z > 0.0).then(|| Zipf::new(n_parts as u64, config.zipf_z)),
            supp_zipf: (config.zipf_z > 0.0).then(|| Zipf::new(n_suppliers as u64, config.zipf_z)),
            qty_zipf: (config.zipf_z > 0.0).then(|| Zipf::new(50, config.zipf_z)),
        })
    }

    /// Generate order `ok`, passing each lineitem record to `line` and
    /// returning the order record.
    fn next_order(&mut self, ok: i64, mut line: impl FnMut(Vec<Value>)) -> Vec<Value> {
        let rng = &mut self.rng;
        let custkey = match &self.cust_zipf {
            Some(_) => skewed_key(rng, self.cust_zipf.as_ref(), self.n_customers),
            None => rng.gen_range(1..=self.n_customers),
        };
        let odate = self.base_date.plus_days(rng.gen_range(0..ORDER_DATE_SPAN));
        let n_lines = rng.gen_range(1..=7);
        let mut total = 0.0f64;
        for ln in 1..=n_lines {
            let partkey = skewed_key(rng, self.part_zipf.as_ref(), self.n_parts);
            let suppkey = skewed_key(rng, self.supp_zipf.as_ref(), self.n_suppliers);
            let quantity = match &self.qty_zipf {
                Some(z) => z.sample(rng) as i64,
                None => rng.gen_range(1..=50),
            };
            let eprice = quantity as f64 * retail_price(partkey);
            let discount = rng.gen_range(0..=10) as f64 / 100.0;
            let tax = rng.gen_range(0..=8) as f64 / 100.0;
            let shipdate = odate.plus_days(rng.gen_range(1..=121));
            let commitdate = odate.plus_days(rng.gen_range(30..=90));
            let receiptdate = shipdate.plus_days(rng.gen_range(1..=30));
            total += eprice * (1.0 - discount) * (1.0 + tax);
            line(vec![
                Value::Int(ok),
                Value::Int(partkey),
                Value::Int(suppkey),
                Value::Int(ln),
                Value::Int(quantity),
                Value::Float(eprice),
                Value::Float(discount),
                Value::Float(tax),
                Value::str(if rng.gen_bool(0.25) { "R" } else { "N" }),
                Value::str(if shipdate.days() > self.base_date.days() + 1200 {
                    "O"
                } else {
                    "F"
                }),
                Value::Date(shipdate),
                Value::Date(commitdate),
                Value::Date(receiptdate),
                Value::str("DELIVER IN PERSON"),
                Value::str(text::SHIP_MODES[rng.gen_range(0..text::SHIP_MODES.len())]),
                Value::str(text::comment(rng)),
            ]);
        }
        vec![
            Value::Int(ok),
            Value::Int(custkey),
            Value::str(if rng.gen_bool(0.5) { "F" } else { "O" }),
            Value::Float(total),
            Value::Date(odate),
            Value::str(text::PRIORITIES[rng.gen_range(0..text::PRIORITIES.len())]),
            Value::str(format!("Clerk#{:09}", rng.gen_range(1..=1000))),
            Value::Int(0),
            Value::str(text::comment(rng)),
        ]
    }
}

fn lineitem_foreign_keys() -> Vec<ForeignKey> {
    vec![
        ForeignKey {
            columns: vec![0],
            parent_table: "orders".into(),
        },
        ForeignKey {
            columns: vec![1],
            parent_table: "part".into(),
        },
        ForeignKey {
            columns: vec![2],
            parent_table: "supplier".into(),
        },
    ]
}

fn gen_orders_lineitem(
    config: &TpchConfig,
    n_orders: i64,
    n_customers: i64,
    n_parts: i64,
    n_suppliers: i64,
) -> Result<(Table, Table)> {
    let mut gen = OrderGen::new(config, n_customers, n_parts, n_suppliers)?;
    let mut orders_tb = TableBuilder::new(orders_schema());
    let mut lines_tb = TableBuilder::new(lineitem_schema());
    for ok in 1..=n_orders {
        let order = gen.next_order(ok, |lv| lines_tb.push(lv));
        orders_tb.push(order);
    }
    let orders = orders_tb.finish(
        "orders",
        vec![0],
        vec![ForeignKey {
            columns: vec![1],
            parent_table: "customer".into(),
        }],
    )?;
    let lineitem = lines_tb.finish("lineitem", vec![0, 3], lineitem_foreign_keys())?;
    Ok((orders, lineitem))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Catalog {
        generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 1,
            zipf_z: 0.0,
        })
        .unwrap()
    }

    #[test]
    fn all_eight_tables_present() {
        let c = tiny();
        for t in [
            "region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem",
        ] {
            assert!(c.get(t).is_ok(), "missing {t}");
        }
    }

    #[test]
    fn row_counts_scale() {
        let c = tiny();
        assert_eq!(c.get("region").unwrap().len(), 5);
        assert_eq!(c.get("nation").unwrap().len(), 25);
        assert_eq!(c.get("part").unwrap().len(), 400);
        assert_eq!(c.get("partsupp").unwrap().len(), 1600);
        assert_eq!(c.get("supplier").unwrap().len(), 20);
        let orders = c.get("orders").unwrap().len();
        assert_eq!(orders, 3000);
        let lines = c.get("lineitem").unwrap().len();
        assert!(lines >= orders && lines <= orders * 7);
    }

    #[test]
    fn referential_integrity_lineitem() {
        let c = tiny();
        let n_parts = c.get("part").unwrap().len() as i64;
        let n_supp = c.get("supplier").unwrap().len() as i64;
        let n_orders = c.get("orders").unwrap().len() as i64;
        for row in c.get("lineitem").unwrap().rows() {
            let ok = row.get(0).as_int().unwrap();
            let pk = row.get(1).as_int().unwrap();
            let sk = row.get(2).as_int().unwrap();
            assert!((1..=n_orders).contains(&ok));
            assert!((1..=n_parts).contains(&pk));
            assert!((1..=n_supp).contains(&sk));
        }
    }

    #[test]
    fn referential_integrity_partsupp() {
        let c = tiny();
        let n_parts = c.get("part").unwrap().len() as i64;
        let n_supp = c.get("supplier").unwrap().len() as i64;
        let mut seen = std::collections::HashSet::new();
        for row in c.get("partsupp").unwrap().rows() {
            let p = row.get(0).as_int().unwrap();
            let s = row.get(1).as_int().unwrap();
            assert!((1..=n_parts).contains(&p));
            assert!((1..=n_supp).contains(&s));
            assert!(seen.insert((p, s)), "duplicate partsupp key ({p},{s})");
        }
    }

    #[test]
    fn receipt_after_ship_after_order() {
        let c = tiny();
        let orders = c.get("orders").unwrap();
        let odates: std::collections::HashMap<i64, Date> = orders
            .rows()
            .iter()
            .map(|r| (r.get(0).as_int().unwrap(), r.get(4).as_date().unwrap()))
            .collect();
        for row in c.get("lineitem").unwrap().rows() {
            let ok = row.get(0).as_int().unwrap();
            let ship = row.get(10).as_date().unwrap();
            let receipt = row.get(12).as_date().unwrap();
            assert!(ship > odates[&ok]);
            assert!(receipt > ship);
        }
    }

    #[test]
    fn determinism() {
        let a = tiny();
        let b = tiny();
        for t in ["part", "lineitem"] {
            let ta = a.get(t).unwrap();
            let tb = b.get(t).unwrap();
            assert_eq!(ta.rows(), tb.rows(), "{t} differs between runs");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 1,
            zipf_z: 0.0,
        })
        .unwrap();
        let b = generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 2,
            zipf_z: 0.0,
        })
        .unwrap();
        assert_ne!(a.get("part").unwrap().rows(), b.get("part").unwrap().rows());
    }

    #[test]
    fn skew_concentrates_lineitem_partkeys() {
        let uniform = generate(&TpchConfig {
            scale_factor: 0.005,
            seed: 3,
            zipf_z: 0.0,
        })
        .unwrap();
        let skewed = generate(&TpchConfig {
            scale_factor: 0.005,
            seed: 3,
            zipf_z: 0.8,
        })
        .unwrap();
        let top_share = |cat: &Catalog| {
            let mut counts: std::collections::HashMap<i64, usize> = Default::default();
            for r in cat.get("lineitem").unwrap().rows() {
                *counts.entry(r.get(1).as_int().unwrap()).or_default() += 1;
            }
            let total: usize = counts.values().sum();
            let mut v: Vec<usize> = counts.values().copied().collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.iter().take(10).sum::<usize>() as f64 / total as f64
        };
        assert!(
            top_share(&skewed) > top_share(&uniform) * 1.5,
            "skewed {} vs uniform {}",
            top_share(&skewed),
            top_share(&uniform)
        );
    }

    #[test]
    fn retail_price_formula_in_range() {
        for k in [1i64, 10, 999, 20_000] {
            let p = retail_price(k);
            assert!((900.0..=2101.0).contains(&p), "price({k}) = {p}");
        }
    }

    #[test]
    fn q17_predicates_select_nonempty() {
        // Brand + container predicates of TPC-H 17 must match some parts.
        let c = generate(&TpchConfig {
            scale_factor: 0.02,
            seed: 7,
            zipf_z: 0.0,
        })
        .unwrap();
        let parts = c.get("part").unwrap();
        let hits = parts
            .rows()
            .iter()
            .filter(|r| {
                r.get(3).as_str().unwrap() == "Brand#34" && r.get(6).as_str().unwrap() == "MED CAN"
            })
            .count();
        assert!(hits > 0, "Brand#34/MED CAN selects nothing");
    }
}
