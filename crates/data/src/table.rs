//! In-memory tables, statistics, and the catalog.
//!
//! The optimizer's cost model (paper §V-A) "does not require histograms:
//! instead, it relies on cardinality estimates and information about keys and
//! foreign keys". [`TableMeta`] carries exactly that: row counts, primary
//! keys, foreign keys, and per-column distinct/min/max statistics computed at
//! load time.

use sip_common::{ColKind, ColumnarBatch, DigestBuffer, Result, Row, Schema, SipError, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Per-column statistics (exact, computed over generated data).
#[derive(Clone, Debug)]
pub struct ColumnStats {
    /// Number of distinct non-NULL values.
    pub distinct: u64,
    /// Minimum value (None for all-NULL / empty).
    pub min: Option<Value>,
    /// Maximum value.
    pub max: Option<Value>,
    /// Occurrences of the most frequent non-NULL value — the exact
    /// heavy-hitter statistic skew-aware planning reads: `max_freq /
    /// row_count` is the hot fraction a hash partitioning cannot split.
    pub max_freq: u64,
}

/// A foreign-key reference: `columns` of this table reference the primary
/// key of `parent_table`.
#[derive(Clone, Debug)]
pub struct ForeignKey {
    /// Referencing column positions in this table.
    pub columns: Vec<usize>,
    /// Referenced table name.
    pub parent_table: String,
}

/// Static + statistical metadata about a table.
#[derive(Clone, Debug)]
pub struct TableMeta {
    /// Table name (`lineitem`, `partsupp`, ...).
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// Primary-key column positions (empty = no declared key).
    pub primary_key: Vec<usize>,
    /// Foreign keys.
    pub foreign_keys: Vec<ForeignKey>,
    /// Row count.
    pub row_count: u64,
    /// Per-column stats, parallel to the schema.
    pub column_stats: Vec<ColumnStats>,
}

/// An immutable in-memory table.
///
/// Stored columnar ([`ColumnarBatch`]) — scans slice the typed columns
/// zero-copy. A row-shaped view is materialized lazily (once) for the
/// consumers that are row seams by design (the oracle, row-based tests).
#[derive(Clone, Debug)]
pub struct Table {
    meta: TableMeta,
    columns: ColumnarBatch,
    rows: OnceLock<Arc<[Row]>>,
}

impl Table {
    /// Build a table from rows, computing exact column statistics. The
    /// given rows seed the lazy row view, so callers that constructed rows
    /// anyway pay no second materialization.
    pub fn new(
        name: impl Into<String>,
        schema: Schema,
        primary_key: Vec<usize>,
        foreign_keys: Vec<ForeignKey>,
        rows: Vec<Row>,
    ) -> Result<Table> {
        let name = name.into();
        for row in rows.iter().take(16) {
            schema
                .check_row(row.values())
                .map_err(|e| SipError::Data(format!("table {name}: {e}")))?;
        }
        let types: Vec<_> = schema.fields().iter().map(|f| f.dtype).collect();
        let columns = ColumnarBatch::from_rows_typed(&rows, &types);
        let table = Table::from_columns(name, schema, primary_key, foreign_keys, columns)?;
        let _ = table.rows.set(rows.into());
        Ok(table)
    }

    /// Build a table directly from finished columns (no row materialization
    /// — the constructor the streaming generator uses). Statistics are
    /// computed columnar.
    pub fn from_columns(
        name: impl Into<String>,
        schema: Schema,
        primary_key: Vec<usize>,
        foreign_keys: Vec<ForeignKey>,
        columns: ColumnarBatch,
    ) -> Result<Table> {
        let name = name.into();
        if columns.n_cols() != schema.len() && !(columns.is_empty() && columns.n_cols() == 0) {
            return Err(SipError::Data(format!(
                "table {name}: {} columns for a {}-column schema",
                columns.n_cols(),
                schema.len()
            )));
        }
        let column_stats = compute_stats(&schema, &columns);
        let meta = TableMeta {
            name,
            schema,
            primary_key,
            foreign_keys,
            row_count: columns.len() as u64,
            column_stats,
        };
        Ok(Table {
            meta,
            columns,
            rows: OnceLock::new(),
        })
    }

    /// Metadata.
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// Schema.
    pub fn schema(&self) -> &Schema {
        &self.meta.schema
    }

    /// The columnar storage — the primary representation scans read.
    pub fn columns(&self) -> &ColumnarBatch {
        &self.columns
    }

    /// All rows, materialized lazily on first call and cached.
    pub fn rows(&self) -> &[Row] {
        self.rows.get_or_init(|| self.columns.to_rows().into())
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.columns.len() == 0
    }

    /// Distinct count for a column (1 if unknown/empty, keeping division
    /// safe in selectivity formulas).
    pub fn distinct(&self, col: usize) -> u64 {
        self.meta
            .column_stats
            .get(col)
            .map(|s| s.distinct.max(1))
            .unwrap_or(1)
    }

    /// Fraction of rows holding the column's most frequent value — the hot
    /// share a hash partitioning cannot split below one worker. 0 for
    /// unknown columns or empty tables.
    pub fn hot_fraction(&self, col: usize) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.meta
            .column_stats
            .get(col)
            .map(|s| s.max_freq as f64 / self.len() as f64)
            .unwrap_or(0.0)
    }
}

/// Normalize `-0.0` to `0.0`, matching `Value::sql_cmp` float ordering.
#[inline]
fn nz(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// The non-NULL min/max of column `c` as view-relative row indices,
/// scanned over the typed slices (no per-value clones). Equal values keep
/// the first occurrence, as the old row-based scan did.
fn min_max_indices(batch: &ColumnarBatch, c: usize) -> (Option<usize>, Option<usize>) {
    let nulls = batch.may_have_nulls(c);
    let mut mn: Option<usize> = None;
    let mut mx: Option<usize> = None;
    macro_rules! scan {
        ($get:expr, $lt:expr) => {
            for i in 0..batch.len() {
                if nulls && !batch.is_valid(c, i) {
                    continue;
                }
                let v = $get(i);
                match mn {
                    None => {
                        mn = Some(i);
                        mx = Some(i);
                    }
                    Some(m) => {
                        if $lt(&v, &$get(m)) {
                            mn = Some(i);
                        }
                        if $lt(&$get(mx.unwrap()), &v) {
                            mx = Some(i);
                        }
                    }
                }
            }
        };
    }
    match batch.kind(c) {
        ColKind::Int => {
            let d = batch.ints(c).expect("Int column");
            scan!(|i: usize| d[i], |a: &i64, b: &i64| a < b);
        }
        ColKind::Float => {
            let d = batch.floats(c).expect("Float column");
            scan!(|i: usize| d[i], |a: &f64, b: &f64| nz(*a)
                .total_cmp(&nz(*b))
                == std::cmp::Ordering::Less);
        }
        ColKind::Date => {
            let d = batch.dates(c).expect("Date column");
            scan!(|i: usize| d[i], |a: &i32, b: &i32| a < b);
        }
        ColKind::Str => {
            scan!(
                |i: usize| batch.str_at(c, i).expect("valid string slot"),
                |a: &&str, b: &&str| a < b
            );
        }
        ColKind::Mixed => {
            // NULL-only or heterogeneous columns: per-value compare
            // (dictionary strings clone as `Arc` bumps).
            scan!(|i: usize| batch.value_at(c, i), |a: &Value, b: &Value| a
                .sql_cmp(b)
                == std::cmp::Ordering::Less);
        }
    }
    (mn, mx)
}

fn compute_stats(schema: &Schema, columns: &ColumnarBatch) -> Vec<ColumnStats> {
    // One vectorized digest pass per column: equal values share a digest,
    // so counting digests counts values.
    let mut digests = DigestBuffer::default();
    let mut stats = Vec::with_capacity(schema.len());
    for c in 0..schema.len() {
        digests.compute_cols(columns, &[c]);
        let mut counts: sip_common::FxHashMap<u64, u64> = Default::default();
        for (i, &d) in digests.digests().iter().enumerate() {
            if digests.is_null_key(i) {
                continue;
            }
            *counts.entry(d).or_default() += 1;
        }
        let (mn, mx) = min_max_indices(columns, c);
        stats.push((
            counts,
            mn.map(|i| columns.value_at(c, i)),
            mx.map(|i| columns.value_at(c, i)),
        ));
    }
    stats
        .into_iter()
        .map(|(counts, min, max)| ColumnStats {
            distinct: counts.len() as u64,
            max_freq: counts.values().copied().max().unwrap_or(0),
            min,
            max,
        })
        .collect()
}

/// Incremental columnar table construction: one typed [`ColumnBuilder`]
/// per schema field, fed record by record, finished into a [`Table`]
/// without ever materializing a `Vec<Row>`. The data generator appends
/// through this, so generation memory is the (dictionary-compressed)
/// columns themselves, not a row-shaped intermediate.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Schema,
    builders: Vec<sip_common::ColumnBuilder>,
}

impl TableBuilder {
    /// Builders pre-typed from `schema`.
    pub fn new(schema: Schema) -> TableBuilder {
        let builders = schema
            .fields()
            .iter()
            .map(|f| sip_common::ColumnBuilder::with_type(f.dtype))
            .collect();
        TableBuilder { schema, builders }
    }

    /// Append one record. `values` must match the schema width.
    pub fn push(&mut self, values: Vec<Value>) {
        assert_eq!(
            values.len(),
            self.builders.len(),
            "record width mismatches schema"
        );
        for (b, v) in self.builders.iter_mut().zip(values.iter()) {
            b.push(v);
        }
    }

    /// Finish into a table with columnar statistics.
    pub fn finish(
        self,
        name: impl Into<String>,
        primary_key: Vec<usize>,
        foreign_keys: Vec<ForeignKey>,
    ) -> Result<Table> {
        let columns =
            ColumnarBatch::from_columns(self.builders.into_iter().map(|b| b.finish()).collect());
        Table::from_columns(name, self.schema, primary_key, foreign_keys, columns)
    }
}

/// A named collection of tables — what a site serves.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table (replacing any previous one of the same name).
    pub fn add(&mut self, table: Table) {
        self.tables
            .insert(table.name().to_string(), Arc::new(table));
    }

    /// Look up a table.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| SipError::Data(format!("table {name:?} not in catalog")))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Total rows across tables.
    pub fn total_rows(&self) -> u64 {
        self.tables.values().map(|t| t.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sip_common::{DataType, Field};

    fn small_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("v", DataType::Str),
        ]);
        let rows = vec![
            Row::new(vec![Value::Int(1), Value::str("a")]),
            Row::new(vec![Value::Int(2), Value::str("b")]),
            Row::new(vec![Value::Int(3), Value::str("a")]),
        ];
        Table::new("t", schema, vec![0], vec![], rows).unwrap()
    }

    #[test]
    fn stats_are_exact() {
        let t = small_table();
        assert_eq!(t.meta().row_count, 3);
        assert_eq!(t.distinct(0), 3);
        assert_eq!(t.distinct(1), 2);
        assert_eq!(t.meta().column_stats[0].min, Some(Value::Int(1)));
        assert_eq!(t.meta().column_stats[0].max, Some(Value::Int(3)));
        // max_freq: the key column is unique, "a" repeats in the value
        // column.
        assert_eq!(t.meta().column_stats[0].max_freq, 1);
        assert_eq!(t.meta().column_stats[1].max_freq, 2);
        assert!((t.hot_fraction(0) - 1.0 / 3.0).abs() < 1e-9);
        assert!((t.hot_fraction(1) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(t.hot_fraction(99), 0.0);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let rows = vec![Row::new(vec![Value::str("oops")])];
        assert!(Table::new("bad", schema, vec![], vec![], rows).is_err());
    }

    #[test]
    fn catalog_lookup() {
        let mut c = Catalog::new();
        c.add(small_table());
        assert!(c.get("t").is_ok());
        assert!(c.get("nope").is_err());
        assert_eq!(c.table_names(), vec!["t"]);
        assert_eq!(c.total_rows(), 3);
    }

    #[test]
    fn distinct_of_unknown_column_is_one() {
        let t = small_table();
        assert_eq!(t.distinct(99), 1);
    }

    #[test]
    fn empty_table_stats() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let t = Table::new("e", schema, vec![0], vec![], vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.distinct(0), 1);
        assert_eq!(t.meta().column_stats[0].min, None);
    }

    #[test]
    fn nulls_excluded_from_stats() {
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]);
        let rows = vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int(5)])];
        let t = Table::new("n", schema, vec![], vec![], rows).unwrap();
        assert_eq!(t.distinct(0), 1);
        assert_eq!(t.meta().column_stats[0].min, Some(Value::Int(5)));
    }
}
