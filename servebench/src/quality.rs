//! The paper's headline metric: how much less data PS3 reads than uniform
//! partition sampling for the same error (§5, Figure 3).
//!
//! PS3's average relative error at a 5% budget is the target; the budget
//! uniform `Random` needs to reach it is interpolated between the
//! `BUDGETS` grid points (log error against log budget) instead of being
//! snapped to the next grid point. Every evaluation combines cached
//! per-partition partials (`ps3_bench::harness`), so no data is re-read.

use ps3_bench::harness::{build_cache, metrics_for, QueryCache, BUDGETS};
use ps3_core::{Method, Ps3System};
use ps3_data::Dataset;
use ps3_query::metrics::ErrorMetrics;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// PS3's reference budget.
pub const PS3_BUDGET: f64 = 0.05;
/// Stochastic runs averaged per (query, method, budget), as in the paper.
pub const RUNS: usize = 10;
/// Seed of the evaluation draws. Fixed, like the dataset: the read
/// reduction is a property of the trained system, so it repeats exactly
/// for a tree and moves only when picks or answers change.
const EVAL_SEED: u64 = 42;
/// Floor on the target error (as in Figure 3), so an exact PS3 answer
/// does not ask uniform sampling for zero error.
const MIN_TARGET: f64 = 1e-4;

/// The read-reduction result and the two numbers it is derived from.
#[derive(Debug, Clone, Copy)]
pub struct ReadReduction {
    /// PS3's mean relative error at [`PS3_BUDGET`].
    pub ps3_err: f64,
    /// The interpolated budget at which `Random` reaches `ps3_err`.
    pub random_budget: f64,
    /// `random_budget / PS3_BUDGET`.
    pub reduction_x: f64,
}

/// The budget at which an error curve first reaches `target`, interpolated
/// between the bracketing grid points. The curve is extended by a full
/// read (budget 1, error 0). Between two points with positive errors the
/// interpolation is linear in (log budget, log error); into the zero-error
/// endpoint it is linear. A target already met at the first grid point
/// reports that point.
pub fn interpolate_budget(budgets: &[f64], errors: &[f64], target: f64) -> f64 {
    assert_eq!(budgets.len(), errors.len());
    assert!(!budgets.is_empty());
    let mut pts: Vec<(f64, f64)> = budgets
        .iter()
        .copied()
        .zip(errors.iter().copied())
        .collect();
    if budgets[budgets.len() - 1] < 1.0 {
        pts.push((1.0, 0.0));
    }
    if pts[0].1 <= target {
        return pts[0].0;
    }
    for w in pts.windows(2) {
        let ((b0, e0), (b1, e1)) = (w[0], w[1]);
        if e1 > target {
            continue;
        }
        if e1 > 0.0 && target > 0.0 {
            let t = (e0.ln() - target.ln()) / (e0.ln() - e1.ln());
            return (b0.ln() + t * (b1.ln() - b0.ln())).exp();
        }
        let t = (e0 - target) / (e0 - e1);
        return b0 + t * (b1 - b0);
    }
    1.0
}

/// Mean error of `method` at `frac` over every cached query with a
/// non-empty answer, averaged over [`RUNS`] draws from `rng`.
fn mean_error(
    system: &Ps3System,
    cache: &[QueryCache],
    method: Method,
    frac: f64,
    rng: &mut StdRng,
) -> f64 {
    let mut all = Vec::new();
    for qc in cache.iter().filter(|qc| !qc.truth.groups.is_empty()) {
        for _ in 0..RUNS {
            let (selection, _) =
                system.select_with_features(&qc.query, &qc.features, method, frac, None, rng);
            all.push(metrics_for(qc, &selection));
        }
    }
    ErrorMetrics::mean(&all).avg_rel_err
}

/// Evaluate the read reduction of `system` on `ds`'s held-out queries.
pub fn read_reduction(system: &Ps3System, ds: &Dataset) -> ReadReduction {
    let rng = &mut StdRng::seed_from_u64(EVAL_SEED);
    let cache = build_cache(ds, &ds.test_queries);
    let ps3_err = mean_error(system, &cache, Method::Ps3, PS3_BUDGET, rng);
    let random: Vec<f64> = BUDGETS
        .iter()
        .map(|&b| mean_error(system, &cache, Method::Random, b, rng))
        .collect();
    let random_budget = interpolate_budget(&BUDGETS, &random, ps3_err.max(MIN_TARGET));
    ReadReduction {
        ps3_err,
        random_budget,
        reduction_x: random_budget / PS3_BUDGET,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: [f64; 4] = [0.01, 0.05, 0.2, 0.5];

    #[test]
    fn grid_points_map_to_themselves() {
        let e = [0.4, 0.2, 0.1, 0.05];
        for (b, e_b) in B.iter().zip(e) {
            assert!((interpolate_budget(&B, &e, e_b) - b).abs() < 1e-12);
        }
    }

    #[test]
    fn interpolation_is_log_log_between_grid_points() {
        // err = 0.02 / sqrt(b): a straight line in log-log space, so the
        // interpolated budget is exact anywhere between grid points.
        let e: Vec<f64> = B.iter().map(|b| 0.02 / b.sqrt()).collect();
        let target = 0.02 / 0.1f64.sqrt();
        assert!((interpolate_budget(&B, &e, target) - 0.1).abs() < 1e-12);
        // Not snapped: a target between 0.05 and 0.2 lands strictly inside.
        let b = interpolate_budget(&B, &e, 0.06);
        assert!(b > 0.05 && b < 0.2, "{b}");
    }

    #[test]
    fn first_crossing_wins_on_a_non_monotone_curve() {
        let e = [0.4, 0.1, 0.3, 0.05];
        let b = interpolate_budget(&B, &e, 0.2);
        assert!(b > 0.01 && b < 0.05, "{b}");
    }

    #[test]
    fn unreached_targets_interpolate_into_a_full_read() {
        let e = [0.4, 0.3, 0.2, 0.1];
        assert!((interpolate_budget(&B, &e, 0.05) - 0.75).abs() < 1e-12);
        assert_eq!(interpolate_budget(&B, &e, 0.0), 1.0);
        // A target met at the first grid point reports that point.
        assert_eq!(interpolate_budget(&B, &e, 0.5), 0.01);
    }
}
