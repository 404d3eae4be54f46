//! Feature normalization (Appendix B): a log transform tames the skew of all
//! summary statistics except the selectivity estimates, which get a cube
//! root; each dimension is then divided by its average over the training set
//! (the average is more outlier-robust than the max).

use ps3_query::Query;

use crate::builder::TableStats;
use crate::features::{FeatureSchema, QueryFeatures};

/// Fitted normalization state: per-dimension training means of the
/// transformed features.
#[derive(Debug, Clone)]
pub struct Normalizer {
    schema: FeatureSchema,
    /// Per-dimension mean of transformed values; 1.0 where the mean was 0
    /// (constant-zero features pass through unchanged).
    means: Vec<f64>,
}

/// The per-value transform: cube root for selectivity features, signed
/// `ln(1+|x|)` otherwise.
#[inline]
fn transform(x: f64, is_selectivity: bool) -> f64 {
    if is_selectivity {
        x.cbrt()
    } else {
        x.signum() * x.abs().ln_1p()
    }
}

impl Normalizer {
    /// Fit means over a set of training feature matrices.
    pub fn fit<'a>(
        schema: FeatureSchema,
        matrices: impl IntoIterator<Item = &'a Vec<Vec<f64>>>,
    ) -> Self {
        let dim = schema.dim();
        let is_sel: Vec<bool> = (0..dim)
            .map(|i| schema.type_of(i).is_selectivity())
            .collect();
        let mut sums = vec![0.0f64; dim];
        let mut n = 0usize;
        for m in matrices {
            for row in m {
                debug_assert_eq!(row.len(), dim);
                for (i, &x) in row.iter().enumerate() {
                    sums[i] += transform(x, is_sel[i]).abs();
                }
                n += 1;
            }
        }
        let means = sums
            .into_iter()
            .map(|s| {
                let mean = if n > 0 { s / n as f64 } else { 0.0 };
                if mean.abs() < 1e-12 {
                    1.0
                } else {
                    mean
                }
            })
            .collect();
        Self { schema, means }
    }

    /// An identity normalizer (transform only, no scaling).
    pub fn identity(schema: FeatureSchema) -> Self {
        Self {
            means: vec![1.0; schema.dim()],
            schema,
        }
    }

    /// Normalize one feature row in place.
    pub fn apply_row(&self, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.schema.dim());
        self.apply_dims(0, row);
    }

    /// Normalize `values`, the dimensions `first..first + values.len()` of
    /// a feature row, in place.
    fn apply_dims(&self, first: usize, values: &mut [f64]) {
        for (i, x) in (first..).zip(values) {
            let is_sel = self.schema.type_of(i).is_selectivity();
            *x = transform(*x, is_sel) / self.means[i];
        }
    }

    /// Normalize a whole matrix in place.
    pub fn apply_matrix(&self, rows: &mut [Vec<f64>]) {
        for row in rows {
            self.apply_row(row);
        }
    }

    /// The feature layout this normalizer was fitted for.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// The fitted per-dimension means, for persistence.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Rebuild a fitted normalizer from persisted parts. Fails when the
    /// mean vector does not match the schema's dimension (a corrupt
    /// artifact), since `apply_row` indexes `means` by dimension.
    pub fn from_raw_parts(schema: FeatureSchema, means: Vec<f64>) -> Result<Self, &'static str> {
        if means.len() != schema.dim() {
            return Err("normalizer mean vector does not match feature dimension");
        }
        Ok(Self { schema, means })
    }
}

/// A table's static feature rows pushed through a fitted [`Normalizer`],
/// once per trained system. A query's feature row is its partition's static
/// row with unused column blocks zeroed plus four selectivity slots
/// (§3.2), and Appendix B normalizes cell by cell, so every normalized cell
/// is a normalized static cell, a normalized zero, or a normalized
/// selectivity estimate. [`Self::query_rows`] assembles a query's
/// normalized rows from those parts, bit-identical to running
/// [`Normalizer::apply_matrix`] over [`QueryFeatures::rows`], with four
/// transforms per partition instead of one per cell.
#[derive(Debug, Clone)]
pub struct NormalizedStatics {
    normalizer: Normalizer,
    /// `rows[p]` = partition `p`'s normalized static row.
    rows: Vec<Vec<f64>>,
    /// A zero row, normalized: the value of every dimension a query masks.
    /// Not literal zeros, since a NaN training mean normalizes 0 to NaN.
    zero: Vec<f64>,
}

impl NormalizedStatics {
    /// Normalize every static row of `stats` with `normalizer`.
    pub fn build(stats: &TableStats, normalizer: &Normalizer) -> Self {
        let mut rows = stats.static_features().to_vec();
        normalizer.apply_matrix(&mut rows);
        let mut zero = vec![0.0; normalizer.schema().dim()];
        normalizer.apply_row(&mut zero);
        Self {
            normalizer: normalizer.clone(),
            rows,
            zero,
        }
    }

    /// `query`'s normalized feature rows, given its raw `features` (which
    /// supply the per-partition selectivity slots): equal, bit for bit, to
    /// `features.rows` through [`Normalizer::apply_matrix`].
    pub fn query_rows(&self, query: &Query, features: &QueryFeatures) -> Vec<Vec<f64>> {
        let schema = self.normalizer.schema();
        debug_assert_eq!(features.schema, *schema);
        debug_assert_eq!(features.num_partitions(), self.rows.len());
        let kept = schema.kept_ranges(query);
        let sel_off = schema.selectivity_offset();
        self.rows
            .iter()
            .zip(&features.rows)
            .map(|(statics, raw)| {
                let mut row = self.zero.clone();
                for r in &kept {
                    row[r.clone()].copy_from_slice(&statics[r.clone()]);
                }
                let sel = &mut row[sel_off..];
                sel.copy_from_slice(&raw[sel_off..]);
                self.normalizer.apply_dims(sel_off, sel);
                row
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::SELECTIVITY_FEATURES;

    fn tiny_schema() -> FeatureSchema {
        FeatureSchema::new(1)
    }

    #[test]
    fn transform_shapes() {
        assert_eq!(transform(0.0, false), 0.0);
        assert!(transform(100.0, false) < 100.0);
        assert!(transform(-5.0, false) < 0.0);
        assert!((transform(0.125, true) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fit_then_apply_scales_to_unit_mean() {
        let schema = tiny_schema();
        let dim = schema.dim();
        let mut m = vec![vec![0.0; dim]; 4];
        // Dimension 0 (mean(x)) takes values 1..4.
        for (i, row) in m.iter_mut().enumerate() {
            row[0] = (i + 1) as f64;
        }
        let norm = Normalizer::fit(schema, [&m]);
        let mut m2 = m.clone();
        norm.apply_matrix(&mut m2);
        let avg: f64 = m2.iter().map(|r| r[0]).sum::<f64>() / 4.0;
        assert!((avg - 1.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn zero_dimensions_pass_through() {
        let schema = tiny_schema();
        let m = vec![vec![0.0; schema.dim()]; 3];
        let norm = Normalizer::fit(schema, [&m]);
        let mut row = vec![0.0; schema.dim()];
        norm.apply_row(&mut row);
        assert!(row.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn selectivity_uses_cube_root() {
        let schema = tiny_schema();
        let norm = Normalizer::identity(schema);
        let mut row = vec![0.0; schema.dim()];
        let sel = schema.selectivity_offset();
        row[sel] = 0.001;
        norm.apply_row(&mut row);
        assert!((row[sel] - 0.1).abs() < 1e-12);
        assert_eq!(sel + SELECTIVITY_FEATURES, schema.dim());
    }

    mod statics {
        use super::super::*;
        use crate::builder::StatsConfig;
        use proptest::prelude::*;
        use ps3_query::{AggExpr, Clause, CmpOp, Predicate, ScalarExpr};
        use ps3_storage::table::TableBuilder;
        use ps3_storage::{ColId, ColumnMeta, ColumnType, PartitionedTable, Schema};

        const PARTS: usize = 6;

        /// Numeric `a` and `b`, categorical `g`, in `PARTS` partitions.
        fn table() -> PartitionedTable {
            let schema = Schema::new(vec![
                ColumnMeta::new("a", ColumnType::Numeric),
                ColumnMeta::new("b", ColumnType::Numeric),
                ColumnMeta::new("g", ColumnType::Categorical),
            ]);
            let mut builder = TableBuilder::new(schema);
            for i in 0..120 {
                builder.push_row(&[i as f64, (i % 7) as f64], &[["x", "y", "z"][i % 3]]);
            }
            PartitionedTable::with_equal_partitions(builder.finish(), PARTS)
        }

        /// `stats` with its static rows replaced by `cells`, row-major.
        fn with_statics(stats: &TableStats, cells: &[f64]) -> TableStats {
            let schema = *stats.feature_schema();
            let cols = schema.num_cols();
            let n = stats.num_partitions();
            TableStats::from_raw_parts(
                (0..n).map(|p| stats.partition(p).to_vec()).collect(),
                (0..cols)
                    .map(|c| stats.global_heavy_hitters(ColId(c)).to_vec())
                    .collect(),
                (0..cols)
                    .map(|c| (0..n).map(|p| stats.bitmap(ColId(c), p)).collect())
                    .collect(),
                cells.chunks(schema.dim()).map(<[f64]>::to_vec).collect(),
                schema,
            )
            .expect("same shapes as the built stats")
        }

        /// Values rich in NaNs, signed zeros, infinities and subnormals.
        fn tricky_f64() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(f64::NAN),
                Just(-f64::NAN),
                Just(0.0),
                Just(-0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::MIN_POSITIVE / 8.0),
                Just(-5e-324),
                -1e6f64..1e6,
                any::<f64>(),
            ]
        }

        /// Training means: the fallback 1.0 for constant-zero dimensions,
        /// ordinary positive means, and the odd NaN or infinity.
        fn mean() -> impl Strategy<Value = f64> {
            prop_oneof![
                Just(1.0),
                Just(1.0),
                0.01f64..20.0,
                Just(f64::NAN),
                Just(f64::INFINITY),
            ]
        }

        /// A query from its parts: which aggregate, which predicate (or
        /// none), which GROUP BY (or none).
        fn query(agg: usize, pred: usize, group: usize) -> Query {
            let aggregate = match agg {
                0 => AggExpr::count(),
                1 => AggExpr::sum(ScalarExpr::col(ColId(0))),
                _ => AggExpr::avg(ScalarExpr::col(ColId(1))),
            };
            let predicate = match pred {
                0 => None,
                1 => Some(Predicate::Clause(Clause::Cmp {
                    col: ColId(0),
                    op: CmpOp::Lt,
                    value: 50.0,
                })),
                2 => Some(Predicate::Clause(Clause::str_eq(ColId(2), "y"))),
                _ => Some(Predicate::Clause(Clause::Cmp {
                    col: ColId(1),
                    op: CmpOp::Ge,
                    value: 3.0,
                })),
            };
            let group_by = match group {
                0 => vec![],
                1 => vec![ColId(2)],
                _ => vec![ColId(2), ColId(1)],
            };
            Query::new(vec![aggregate], predicate, group_by)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn query_rows_match_apply_matrix(
                cells in prop::collection::vec(tricky_f64(), PARTS * FeatureSchema::new(3).dim()),
                means in prop::collection::vec(mean(), FeatureSchema::new(3).dim()),
                shape in (0usize..3, 0usize..4, 0usize..3),
            ) {
                let pt = table();
                let stats = with_statics(&TableStats::build(&pt, &StatsConfig::default()), &cells);
                let normalizer = Normalizer::from_raw_parts(*stats.feature_schema(), means)
                    .expect("one mean per dimension");
                let q = query(shape.0, shape.1, shape.2);
                let features = QueryFeatures::compute(&stats, pt.table(), &q);
                let mut want = features.rows.clone();
                normalizer.apply_matrix(&mut want);
                let got = NormalizedStatics::build(&stats, &normalizer).query_rows(&q, &features);
                let bits = |rows: &[Vec<f64>]| -> Vec<u64> {
                    rows.iter().flatten().map(|x| x.to_bits()).collect()
                };
                prop_assert_eq!(bits(&got), bits(&want), "{:?}", q);
            }
        }
    }

    #[test]
    fn identity_keeps_scale_free_of_training_set() {
        let schema = tiny_schema();
        let norm = Normalizer::identity(schema);
        let mut row = vec![1.0; schema.dim()];
        norm.apply_row(&mut row);
        // ln(2) for non-selectivity dims.
        assert!((row[0] - std::f64::consts::LN_2).abs() < 1e-12);
    }
}
