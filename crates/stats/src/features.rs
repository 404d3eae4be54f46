//! Feature vectors from summary statistics (§3.2, Table 2).
//!
//! Every partition gets a fixed-schema vector determined entirely by the
//! table's schema: a 42-wide block per column (17 scalar statistics + a
//! 25-bit heavy-hitter occurrence bitmap) plus 4 query-specific selectivity
//! features at the end.
//!
//! At query time a mask zeroes the blocks of columns the query does not use,
//! bitmap bits survive only for the query's group-by columns, and the four
//! selectivity slots are filled per partition.

use std::ops::Range;

use ps3_query::{CompiledPredicate, Query};
use ps3_storage::{ColId, Table};

use crate::builder::TableStats;
use crate::selectivity::{selectivity_features_compiled, SelectivityFeatures};

/// Scalar statistics per column (before the bitmap).
pub const SCALARS_PER_COL: usize = 17;
/// Occurrence-bitmap width: the paper caps global heavy hitters at 25/column.
pub const BITMAP_BITS: usize = 25;
/// Total feature slots per column.
pub const PER_COL: usize = SCALARS_PER_COL + BITMAP_BITS;
/// Trailing query-level selectivity features.
pub const SELECTIVITY_FEATURES: usize = 4;

/// The *kind* of a feature — the granularity at which the paper's
/// feature-selection procedure (Algorithm 3) includes or excludes features
/// (one kind spans all columns), and at which Figure 5 groups importance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureType {
    /// mean(x)
    Mean,
    /// min(x)
    Min,
    /// max(x)
    Max,
    /// mean(x²)
    SecondMoment,
    /// std(x)
    Std,
    /// mean(log x)
    LogMean,
    /// mean(log²x)
    LogSecondMoment,
    /// min(log x)
    LogMin,
    /// max(log x)
    LogMax,
    /// number of distinct values
    Ndv,
    /// avg freq. of distinct values
    DvAvg,
    /// max freq. of distinct values
    DvMax,
    /// min freq. of distinct values
    DvMin,
    /// sum freq. of distinct values
    DvSum,
    /// number of heavy hitters
    HhCount,
    /// avg freq. of heavy hitters
    HhAvg,
    /// max freq. of heavy hitters
    HhMax,
    /// heavy-hitter occurrence bitmap (all 25 bits)
    HhBitmap,
    /// selectivity_upper
    SelUpper,
    /// selectivity_indep
    SelIndep,
    /// selectivity_min
    SelMin,
    /// selectivity_max
    SelMax,
}

impl FeatureType {
    /// Every feature type, in schema order.
    pub const ALL: [FeatureType; 22] = [
        FeatureType::Mean,
        FeatureType::Min,
        FeatureType::Max,
        FeatureType::SecondMoment,
        FeatureType::Std,
        FeatureType::LogMean,
        FeatureType::LogSecondMoment,
        FeatureType::LogMin,
        FeatureType::LogMax,
        FeatureType::Ndv,
        FeatureType::DvAvg,
        FeatureType::DvMax,
        FeatureType::DvMin,
        FeatureType::DvSum,
        FeatureType::HhCount,
        FeatureType::HhAvg,
        FeatureType::HhMax,
        FeatureType::HhBitmap,
        FeatureType::SelUpper,
        FeatureType::SelIndep,
        FeatureType::SelMin,
        FeatureType::SelMax,
    ];

    /// Stable display name (matches the paper's Algorithm-3 vocabulary).
    pub fn label(self) -> &'static str {
        match self {
            FeatureType::Mean => "x",
            FeatureType::Min => "min(x)",
            FeatureType::Max => "max(x)",
            FeatureType::SecondMoment => "x2",
            FeatureType::Std => "std",
            FeatureType::LogMean => "log(x)",
            FeatureType::LogSecondMoment => "log2(x)",
            FeatureType::LogMin => "min(log(x))",
            FeatureType::LogMax => "max(log(x))",
            FeatureType::Ndv => "# dv",
            FeatureType::DvAvg => "avg dv",
            FeatureType::DvMax => "max dv",
            FeatureType::DvMin => "min dv",
            FeatureType::DvSum => "sum dv",
            FeatureType::HhCount => "# hh",
            FeatureType::HhAvg => "avg hh",
            FeatureType::HhMax => "max hh",
            FeatureType::HhBitmap => "hh bitmap",
            FeatureType::SelUpper => "selectivity_upper",
            FeatureType::SelIndep => "selectivity_indep",
            FeatureType::SelMin => "selectivity_min",
            FeatureType::SelMax => "selectivity_max",
        }
    }

    /// Whether this is one of the four selectivity features.
    pub fn is_selectivity(self) -> bool {
        matches!(
            self,
            FeatureType::SelUpper
                | FeatureType::SelIndep
                | FeatureType::SelMin
                | FeatureType::SelMax
        )
    }

    /// The Figure-5 category this feature belongs to.
    pub fn category(self) -> FeatureCategory {
        match self {
            FeatureType::Mean
            | FeatureType::Min
            | FeatureType::Max
            | FeatureType::SecondMoment
            | FeatureType::Std
            | FeatureType::LogMean
            | FeatureType::LogSecondMoment
            | FeatureType::LogMin
            | FeatureType::LogMax => FeatureCategory::Measure,
            FeatureType::Ndv
            | FeatureType::DvAvg
            | FeatureType::DvMax
            | FeatureType::DvMin
            | FeatureType::DvSum => FeatureCategory::DistinctValue,
            FeatureType::HhCount
            | FeatureType::HhAvg
            | FeatureType::HhMax
            | FeatureType::HhBitmap => FeatureCategory::HeavyHitter,
            FeatureType::SelUpper
            | FeatureType::SelIndep
            | FeatureType::SelMin
            | FeatureType::SelMax => FeatureCategory::Selectivity,
        }
    }
}

/// The four sketch-derived feature categories of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureCategory {
    /// Histogram-derived selectivity estimates.
    Selectivity,
    /// Heavy-hitter statistics and bitmaps.
    HeavyHitter,
    /// Distinct-value (AKMV) statistics.
    DistinctValue,
    /// Moment/min/max measures.
    Measure,
}

impl FeatureCategory {
    /// All categories in Figure-5 order.
    pub const ALL: [FeatureCategory; 4] = [
        FeatureCategory::Selectivity,
        FeatureCategory::HeavyHitter,
        FeatureCategory::DistinctValue,
        FeatureCategory::Measure,
    ];

    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            FeatureCategory::Selectivity => "selectivity",
            FeatureCategory::HeavyHitter => "hh",
            FeatureCategory::DistinctValue => "dv",
            FeatureCategory::Measure => "measure",
        }
    }
}

/// Index arithmetic over the feature vector layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureSchema {
    num_cols: usize,
}

impl FeatureSchema {
    /// Schema for a table with `num_cols` columns.
    pub fn new(num_cols: usize) -> Self {
        Self { num_cols }
    }

    /// Total feature dimension.
    pub fn dim(&self) -> usize {
        self.num_cols * PER_COL + SELECTIVITY_FEATURES
    }

    /// Number of table columns.
    pub fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// Start of column `c`'s block.
    pub fn col_offset(&self, c: ColId) -> usize {
        c.index() * PER_COL
    }

    /// Offset of the four selectivity features.
    pub fn selectivity_offset(&self) -> usize {
        self.num_cols * PER_COL
    }

    /// The feature type of dimension `idx`.
    pub fn type_of(&self, idx: usize) -> FeatureType {
        let sel = self.selectivity_offset();
        if idx >= sel {
            return match idx - sel {
                0 => FeatureType::SelUpper,
                1 => FeatureType::SelIndep,
                2 => FeatureType::SelMin,
                3 => FeatureType::SelMax,
                _ => panic!("feature index {idx} out of range"),
            };
        }
        let within = idx % PER_COL;
        if within >= SCALARS_PER_COL {
            FeatureType::HhBitmap
        } else {
            FeatureType::ALL[within]
        }
    }

    /// All dimensions carrying feature type `ft`.
    pub fn indices_of(&self, ft: FeatureType) -> Vec<usize> {
        (0..self.dim()).filter(|&i| self.type_of(i) == ft).collect()
    }

    /// The static-feature ranges `query` keeps (§3.2): the scalar block of
    /// every column it uses, and the whole block, occurrence bitmap
    /// included, of its group-by columns. Every other static dimension is
    /// zero in the query's feature rows.
    pub(crate) fn kept_ranges(&self, query: &Query) -> Vec<Range<usize>> {
        query
            .used_columns()
            .into_iter()
            .map(|c| {
                let off = self.col_offset(c);
                // Bitmaps are only computed for grouping columns (§3.2).
                if query.group_by.contains(&c) {
                    off..off + PER_COL
                } else {
                    off..off + SCALARS_PER_COL
                }
            })
            .collect()
    }

    /// Human-readable name of dimension `idx` given the table schema.
    pub fn name(&self, idx: usize, table: &Table) -> String {
        let sel = self.selectivity_offset();
        if idx >= sel {
            return self.type_of(idx).label().to_owned();
        }
        let col = idx / PER_COL;
        let within = idx % PER_COL;
        let col_name = &table.schema().col(ColId(col)).name;
        if within >= SCALARS_PER_COL {
            format!("{col_name}.bitmap[{}]", within - SCALARS_PER_COL)
        } else {
            format!("{col_name}.{}", FeatureType::ALL[within].label())
        }
    }
}

/// Masked, selectivity-augmented feature matrix for one query: the `F ∈
/// R^{N×M}` of §2.4.
#[derive(Debug, Clone)]
pub struct QueryFeatures {
    /// One row per partition.
    pub rows: Vec<Vec<f64>>,
    /// The layout.
    pub schema: FeatureSchema,
}

impl QueryFeatures {
    /// Build the feature matrix for `query` (§3.2):
    /// * start from a zero row and copy in only the static blocks of the
    ///   columns the query touches (equivalent to cloning the full static
    ///   row and zeroing the unused blocks, but it moves `used/total`
    ///   instead of all of the ~42·C features per partition),
    /// * keep occurrence bitmaps only for the query's group-by columns,
    /// * append the four per-partition selectivity estimates, probed
    ///   through the predicate compiled **once** per `(query, table)` —
    ///   `IN`/`Contains` dictionary resolution no longer reruns per
    ///   partition.
    pub fn compute(stats: &TableStats, table: &Table, query: &Query) -> Self {
        let schema = *stats.feature_schema();
        let kept = schema.kept_ranges(query);
        let compiled = query
            .predicate
            .as_ref()
            .map(|p| CompiledPredicate::compile(table, p));

        let sel_off = schema.selectivity_offset();
        let mut rows = Vec::with_capacity(stats.num_partitions());
        for p in 0..stats.num_partitions() {
            let statics = &stats.static_features()[p];
            let mut row = vec![0.0; schema.dim()];
            for r in &kept {
                row[r.clone()].copy_from_slice(&statics[r.clone()]);
            }
            let sel = match &compiled {
                Some(cp) => selectivity_features_compiled(Some(cp), stats.partition(p)),
                None => SelectivityFeatures::all_pass(),
            };
            row[sel_off..sel_off + 4].copy_from_slice(&sel.as_array());
            rows.push(row);
        }
        Self { rows, schema }
    }

    /// Number of partitions (rows).
    pub fn num_partitions(&self) -> usize {
        self.rows.len()
    }

    /// The `selectivity_upper` value of partition `p` — the §4.3 funnel's
    /// first filter.
    pub fn selectivity_upper(&self, p: usize) -> f64 {
        self.rows[p][self.schema.selectivity_offset()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{StatsConfig, TableStats};
    use ps3_query::{AggExpr, Clause, CmpOp, Predicate, Query, ScalarExpr};
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, PartitionedTable, Schema};

    fn fixture() -> (PartitionedTable, TableStats) {
        let schema = Schema::new(vec![
            ColumnMeta::new("a", ColumnType::Numeric),
            ColumnMeta::new("b", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut builder = TableBuilder::new(schema);
        for i in 0..200 {
            builder.push_row(&[i as f64, (i % 13) as f64], &[["x", "y"][i % 2]]);
        }
        let pt = PartitionedTable::with_equal_partitions(builder.finish(), 8);
        let stats = TableStats::build(&pt, &StatsConfig::default());
        (pt, stats)
    }

    #[test]
    fn mask_zeroes_unused_columns() {
        let (pt, stats) = fixture();
        // Query touches only column a (aggregate) — b and g must be zeroed.
        let q = Query::new(vec![AggExpr::sum(ScalarExpr::col(ColId(0)))], None, vec![]);
        let f = QueryFeatures::compute(&stats, pt.table(), &q);
        let schema = f.schema;
        for row in &f.rows {
            let b_off = schema.col_offset(ColId(1));
            assert!(row[b_off..b_off + PER_COL].iter().all(|&x| x == 0.0));
            let g_off = schema.col_offset(ColId(2));
            assert!(row[g_off..g_off + PER_COL].iter().all(|&x| x == 0.0));
            // Column a's block carries signal (mean of a differs from 0).
            let a_off = schema.col_offset(ColId(0));
            assert!(row[a_off] != 0.0);
        }
    }

    #[test]
    fn bitmaps_survive_only_for_group_by_columns() {
        let (pt, stats) = fixture();
        // g used as a predicate column but NOT grouped: bitmap must be zero.
        let q = Query::new(
            vec![AggExpr::count()],
            Some(Predicate::Clause(Clause::str_eq(ColId(2), "x"))),
            vec![],
        );
        let f = QueryFeatures::compute(&stats, pt.table(), &q);
        let off = f.schema.col_offset(ColId(2)) + SCALARS_PER_COL;
        for row in &f.rows {
            assert!(row[off..off + BITMAP_BITS].iter().all(|&x| x == 0.0));
            // But scalar hh/dv features of g survive (column is used).
            assert!(
                row[f.schema.col_offset(ColId(2)) + 9] > 0.0,
                "ndv masked out"
            );
        }
        // Same query grouped by g: bitmap bits appear ("x"/"y" are heavy).
        let q = Query::new(vec![AggExpr::count()], None, vec![ColId(2)]);
        let f = QueryFeatures::compute(&stats, pt.table(), &q);
        let any_bit = f
            .rows
            .iter()
            .any(|row| row[off..off + BITMAP_BITS].iter().any(|&x| x != 0.0));
        assert!(any_bit, "group-by column lost its occurrence bitmap");
    }

    #[test]
    fn selectivity_slots_reflect_predicate() {
        let (pt, stats) = fixture();
        let q = Query::new(
            vec![AggExpr::count()],
            Some(Predicate::Clause(Clause::Cmp {
                col: ColId(0),
                op: CmpOp::Lt,
                value: 50.0,
            })),
            vec![],
        );
        let f = QueryFeatures::compute(&stats, pt.table(), &q);
        // Rows 0..50 live in the first two partitions (25 rows each).
        assert!(f.selectivity_upper(0) > 0.9);
        assert!(f.selectivity_upper(7) == 0.0);
        // No predicate: all-pass.
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let f = QueryFeatures::compute(&stats, pt.table(), &q);
        assert_eq!(f.selectivity_upper(3), 1.0);
    }

    #[test]
    fn layout_arithmetic() {
        let s = FeatureSchema::new(3);
        assert_eq!(s.dim(), 3 * PER_COL + 4);
        assert_eq!(s.col_offset(ColId(2)), 2 * PER_COL);
        assert_eq!(s.selectivity_offset(), 3 * PER_COL);
    }

    #[test]
    fn type_of_every_dimension() {
        let s = FeatureSchema::new(2);
        assert_eq!(s.type_of(0), FeatureType::Mean);
        assert_eq!(s.type_of(16), FeatureType::HhMax);
        assert_eq!(s.type_of(17), FeatureType::HhBitmap);
        assert_eq!(s.type_of(41), FeatureType::HhBitmap);
        assert_eq!(s.type_of(PER_COL), FeatureType::Mean);
        assert_eq!(s.type_of(s.selectivity_offset()), FeatureType::SelUpper);
        assert_eq!(s.type_of(s.selectivity_offset() + 3), FeatureType::SelMax);
    }

    #[test]
    fn indices_of_covers_dim_exactly_once() {
        let s = FeatureSchema::new(2);
        let mut seen = vec![0u32; s.dim()];
        for ft in FeatureType::ALL {
            for i in s.indices_of(ft) {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn bitmap_indices_per_column() {
        let s = FeatureSchema::new(2);
        let idx = s.indices_of(FeatureType::HhBitmap);
        assert_eq!(idx.len(), 2 * BITMAP_BITS);
    }

    #[test]
    fn categories_partition_types() {
        use std::collections::HashMap;
        let mut counts: HashMap<FeatureCategory, usize> = HashMap::new();
        for ft in FeatureType::ALL {
            *counts.entry(ft.category()).or_default() += 1;
        }
        assert_eq!(counts[&FeatureCategory::Measure], 9);
        assert_eq!(counts[&FeatureCategory::DistinctValue], 5);
        assert_eq!(counts[&FeatureCategory::HeavyHitter], 4);
        assert_eq!(counts[&FeatureCategory::Selectivity], 4);
    }
}
