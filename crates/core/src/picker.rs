//! Algorithm 1: the full partition picker.
//!
//! A pick splits into two halves. [`PickPlan`] holds everything that does
//! not depend on the seed: the selectivity filter's candidates, the ordered
//! outlier list (§4.4), the importance groups of the funnel (§4.3), and each
//! group's feature rows projected onto its live dimensions. The seeded half
//! caps the outliers by the budget, allocates the rest across groups,
//! clusters and picks exemplars. It reads no feature rows: the plan's
//! projections are all it clusters. The serving path keeps one plan per
//! query shape beside its cached artifacts, so a repeated shape runs only
//! the seeded half; every other pick builds a one-off plan.

use std::borrow::Cow;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use ps3_cluster::{cluster, median_exemplar, random_exemplar, ClusterAlgo};
use ps3_query::{Query, WeightedPart};
use ps3_stats::{NormalizedStatics, QueryFeatures, TableStats};
use ps3_storage::{PartitionId, PartitionedTable};

use crate::allocate::allocate_samples;
use crate::config::ExemplarRule;
use crate::importance::{importance_groups, ImportanceSource};
use crate::outlier::find_outliers;
use crate::train::TrainedPs3;

/// The picker's output: the weighted selection plus diagnostics the
/// evaluation (Tables 5, Figure 4) reads.
#[derive(Debug, Clone)]
pub struct PickOutcome {
    /// Weighted partition choices; weights of exemplars equal their cluster
    /// sizes, outliers carry weight 1.
    pub selection: Vec<WeightedPart>,
    /// Total picker latency in milliseconds.
    pub total_ms: f64,
    /// Time spent clustering, in milliseconds (Table 5 breaks this out).
    pub clustering_ms: f64,
    /// Importance-group sizes, least important first.
    pub group_sizes: Vec<usize>,
    /// How many outlier partitions were selected.
    pub num_outliers: usize,
}

/// The seed-independent half of Algorithm 1 for one query against one
/// trained system: a pure function of the query, its normalized feature
/// rows, the trained models and the picker toggles. One plan serves picks
/// under any budget and seed, each drawing the same random numbers a pick
/// without a cached plan would.
#[derive(Debug)]
pub struct PickPlan {
    /// Partition count of the table the plan was built for.
    num_partitions: usize,
    /// Outlying candidates, smallest bitmap groups first; empty when the
    /// outlier stage is off or the query has no GROUP BY.
    outliers: Vec<usize>,
    /// The funnel's importance groups over all candidates, least important
    /// first, each in candidate order.
    groups: Vec<PlanGroup>,
    /// Whether groups are clustered (else sampled uniformly): the
    /// clustering toggle and the complex-predicate fallback (Appendix B.1).
    cluster_ok: bool,
}

/// One importance group and, when the plan may cluster, its members' rows
/// projected onto the group's live dimensions.
#[derive(Debug)]
struct PlanGroup {
    members: Vec<usize>,
    /// `points[i]` = the projected row of `members[i]`; empty when the
    /// plan never clusters.
    points: Vec<Vec<f64>>,
}

/// The query-time picker: borrows the trained state and the statistics.
pub struct Picker<'a> {
    /// Trained models + normalizer + config.
    pub trained: &'a TrainedPs3,
    /// Table statistics (bitmaps for outlier detection).
    pub stats: &'a TableStats,
    /// The static rows through `trained.normalizer`, which query rows are
    /// normalized from.
    pub statics: &'a NormalizedStatics,
    /// The partitioned table (schema + dictionaries for selectivity).
    pub pt: &'a PartitionedTable,
}

impl Picker<'_> {
    /// Run Algorithm 1 with precomputed raw features, normalizing them
    /// here from [`Self::statics`], through a one-off [`PickPlan`];
    /// `total_ms` covers both halves. `oracle` substitutes true
    /// contributions for the learned models (Appendix C.2). The serving
    /// path keeps the query's [`PickPlan`] instead.
    pub fn pick_with_features(
        &self,
        query: &Query,
        features: &QueryFeatures,
        budget: usize,
        rng: &mut StdRng,
        oracle: Option<&[f64]>,
    ) -> PickOutcome {
        let started = Instant::now();
        let rows = self.statics.query_rows(query, features);
        let plan = self.plan(query, features, &rows, oracle);
        self.run(&plan, budget, rng, started)
    }

    /// The seed-independent half of Algorithm 1: the selectivity filter,
    /// outlier detection and the importance funnel over `rows` (normalized,
    /// `rows[p]` for partition `p`), and, when the plan may cluster, every
    /// group's projection. `oracle` substitutes true contributions for the
    /// learned models (Appendix C.2).
    pub(crate) fn plan(
        &self,
        query: &Query,
        features: &QueryFeatures,
        rows: &[Vec<f64>],
        oracle: Option<&[f64]>,
    ) -> PickPlan {
        let cfg = &self.trained.config;
        let num_partitions = features.num_partitions();

        // Selectivity filter: perfect recall, so dropping upper == 0 is safe.
        let candidates: Vec<usize> = if cfg.use_filter {
            (0..num_partitions)
                .filter(|&p| features.selectivity_upper(p) > 0.0)
                .collect()
        } else {
            (0..num_partitions).collect()
        };

        let outliers = if cfg.use_outliers && !query.group_by.is_empty() {
            find_outliers(
                self.stats,
                &query.group_by,
                &candidates,
                cfg.outlier_abs_limit,
                cfg.outlier_rel_limit,
            )
        } else {
            Vec::new()
        };

        // Importance funnel (Algorithm 2). Each partition's pass/fail
        // decisions depend only on its own row, so groups over all
        // candidates, filtered later, equal groups over any subset.
        let groups = if cfg.use_regressors {
            let source = match oracle {
                Some(contributions) => ImportanceSource::Oracle {
                    contributions,
                    thresholds: &self.trained.thresholds,
                },
                None => ImportanceSource::Learned(&self.trained.models),
            };
            importance_groups(&candidates, rows, &source)
        } else {
            vec![candidates]
        };

        // Clustering fallback: very complex predicates make the features
        // unrepresentative (Appendix B.1).
        let clause_count = query.predicate.as_ref().map_or(0, |p| p.clause_count());
        let cluster_ok = cfg.use_clustering && clause_count <= cfg.fallback_clause_limit;
        // Algorithm-3 feature exclusions apply only to clustering (the
        // funnel wants the full vectors).
        let excluded = &self.trained.excluded_dims;
        PickPlan {
            num_partitions,
            outliers,
            groups: groups
                .into_iter()
                .map(|members| PlanGroup {
                    points: if cluster_ok {
                        project(&members, rows, excluded)
                    } else {
                        Vec::new()
                    },
                    members,
                })
                .collect(),
            cluster_ok,
        }
    }

    /// The seeded half of Algorithm 1 over `plan`: outliers up to
    /// `outlier_budget_frac · budget` at weight 1, the rest of the budget
    /// allocated across importance groups, each group clustered (or
    /// sampled uniformly) into weighted exemplars.
    /// `total_ms` counts from `started`, so it includes whatever the caller
    /// did for this pick before (such as building the plan).
    pub(crate) fn run(
        &self,
        plan: &PickPlan,
        budget: usize,
        rng: &mut StdRng,
        started: Instant,
    ) -> PickOutcome {
        let cfg = &self.trained.config;
        let budget = budget.min(plan.num_partitions);

        // Outliers (§4.4): weight 1, capped at outlier_budget_frac · budget.
        let cap = if budget > 0 {
            (cfg.outlier_budget_frac * budget as f64).floor() as usize
        } else {
            0
        };
        let chosen = &plan.outliers[..cap.min(plan.outliers.len())];
        let mut selection: Vec<WeightedPart> = Vec::with_capacity(budget);
        selection.extend(chosen.iter().map(|&p| WeightedPart {
            partition: PartitionId(p),
            weight: 1.0,
        }));
        let mut taken = vec![false; plan.num_partitions];
        for &p in chosen {
            taken[p] = true;
        }

        // Groups over the remaining candidates, still in candidate order.
        let groups: Vec<Cow<'_, [usize]>> = if chosen.is_empty() {
            plan.groups
                .iter()
                .map(|g| Cow::Borrowed(g.members.as_slice()))
                .collect()
        } else {
            plan.groups
                .iter()
                .map(|g| g.members.iter().copied().filter(|&p| !taken[p]).collect())
                .collect()
        };
        let group_sizes: Vec<usize> = groups.iter().map(|g| g.len()).collect();
        let alloc = allocate_samples(&group_sizes, budget - chosen.len(), cfg.alpha);

        let mut clustering_ms = 0.0;
        for ((plan_group, group), &k) in plan.groups.iter().zip(&groups).zip(&alloc) {
            if k == 0 || group.is_empty() {
                continue;
            }
            if k >= group.len() {
                selection.extend(group.iter().map(|&p| WeightedPart {
                    partition: PartitionId(p),
                    weight: 1.0,
                }));
            } else if plan.cluster_ok {
                let t = Instant::now();
                let points = if group.len() == plan_group.members.len() {
                    Cow::Borrowed(plan_group.points.as_slice())
                } else {
                    Cow::Owned(trim_projection(
                        &plan_group.members,
                        &plan_group.points,
                        &taken,
                    ))
                };
                selection.extend(cluster_points(
                    group,
                    &points,
                    k,
                    cfg.cluster_algo,
                    cfg.estimator,
                    rng,
                ));
                clustering_ms += t.elapsed().as_secs_f64() * 1e3;
            } else {
                let mut pool = group.to_vec();
                pool.shuffle(rng);
                pool.truncate(k);
                let w = group.len() as f64 / k as f64;
                selection.extend(pool.into_iter().map(|p| WeightedPart {
                    partition: PartitionId(p),
                    weight: w,
                }));
            }
        }

        PickOutcome {
            selection,
            total_ms: started.elapsed().as_secs_f64() * 1e3,
            clustering_ms,
            group_sizes,
            num_outliers: chosen.len(),
        }
    }
}

/// `rows` of the `group` members projected onto the group's live
/// dimensions: those not `excluded` (the Algorithm-3 feature exclusions;
/// `&[]` for none) and not zero across the whole group. The query mask
/// zeroes most columns, so this cuts the distance cost by an order of
/// magnitude without changing any distance. Dimensions stay per group:
/// a wider projection changes lane alignment, and with it the bits of
/// the clustering distances.
fn project(group: &[usize], rows: &[Vec<f64>], excluded: &[bool]) -> Vec<Vec<f64>> {
    let dim = rows.first().map_or(0, Vec::len);
    let live_dims: Vec<usize> = (0..dim)
        .filter(|&d| !excluded.get(d).copied().unwrap_or(false))
        .filter(|&d| group.iter().any(|&p| rows[p][d] != 0.0))
        .collect();
    group
        .iter()
        .map(|&p| live_dims.iter().map(|&d| rows[p][d]).collect())
        .collect()
}

/// The projection of a group's members that are not `taken`, cut from the
/// whole group's projection `points` (`points[i]` for `members[i]`): the
/// kept rows in order, then only the columns still non-zero among them.
/// Dropping members can only zero more dimensions, so this equals
/// [`project`] over the kept members: same dimensions, order and bits.
fn trim_projection(members: &[usize], points: &[Vec<f64>], taken: &[bool]) -> Vec<Vec<f64>> {
    let kept: Vec<&Vec<f64>> = members
        .iter()
        .zip(points)
        .filter(|&(&p, _)| !taken[p])
        .map(|(_, row)| row)
        .collect();
    let dim = points.first().map_or(0, Vec::len);
    let live_dims: Vec<usize> = (0..dim)
        .filter(|&d| kept.iter().any(|row| row[d] != 0.0))
        .collect();
    kept.iter()
        .map(|row| live_dims.iter().map(|&d| row[d]).collect())
        .collect()
}

/// Cluster one importance group into `k` clusters and emit one weighted
/// exemplar per cluster (§4.2). `points[i]` is the projected row of
/// `group[i]`.
fn cluster_points(
    group: &[usize],
    points: &[Vec<f64>],
    k: usize,
    algo: ClusterAlgo,
    estimator: ExemplarRule,
    rng: &mut StdRng,
) -> Vec<WeightedPart> {
    let clusters = cluster(points, k, algo, rng);
    clusters
        .iter()
        .map(|members| {
            let local = match estimator {
                ExemplarRule::Median => median_exemplar(points, members),
                ExemplarRule::Random => random_exemplar(members, rng),
            };
            WeightedPart {
                partition: PartitionId(group[local]),
                weight: members.len() as f64,
            }
        })
        .collect()
}

/// Cluster one importance group into `k` clusters and emit one weighted
/// exemplar per cluster (§4.2). The group's `rows` are first projected
/// onto its live dimensions: not `excluded` (the Algorithm-3 feature
/// exclusions; `&[]` for none) and not zero across the whole group.
pub fn cluster_select(
    group: &[usize],
    rows: &[Vec<f64>],
    excluded: &[bool],
    k: usize,
    algo: ClusterAlgo,
    estimator: ExemplarRule,
    rng: &mut StdRng,
) -> Vec<WeightedPart> {
    let points = project(group, rows, excluded);
    cluster_points(group, &points, k, algo, estimator, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn cluster_select_weights_sum_to_group_size() {
        // 12 partitions in two obvious feature blobs.
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                vec![
                    if i < 6 { 0.0 } else { 100.0 },
                    f64::from(i % 6) * 0.01,
                    0.0,
                ]
            })
            .collect();
        let group: Vec<usize> = (0..12).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let picks = cluster_select(
            &group,
            &rows,
            &[],
            2,
            ClusterAlgo::KMeans,
            ExemplarRule::Median,
            &mut rng,
        );
        assert_eq!(picks.len(), 2);
        let total: f64 = picks.iter().map(|p| p.weight).sum();
        assert_eq!(total, 12.0);
        // One exemplar from each blob.
        let sides: HashSet<bool> = picks.iter().map(|p| p.partition.index() < 6).collect();
        assert_eq!(sides.len(), 2);
    }

    #[test]
    fn cluster_select_on_subset_of_partitions() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![f64::from(i)]).collect();
        let group = vec![2, 3, 8, 9];
        let mut rng = StdRng::seed_from_u64(0);
        let picks = cluster_select(
            &group,
            &rows,
            &[],
            2,
            ClusterAlgo::HacWard,
            ExemplarRule::Median,
            &mut rng,
        );
        // Exemplars must come from the group.
        for p in &picks {
            assert!(group.contains(&p.partition.index()));
        }
        let total: f64 = picks.iter().map(|p| p.weight).sum();
        assert_eq!(total, 4.0);
    }

    #[test]
    fn random_estimator_picks_members() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![f64::from(i)]).collect();
        let group: Vec<usize> = (0..6).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let picks = cluster_select(
            &group,
            &rows,
            &[],
            3,
            ClusterAlgo::KMeans,
            ExemplarRule::Random,
            &mut rng,
        );
        assert_eq!(picks.len(), 3);
        for p in &picks {
            assert!(p.partition.index() < 6);
        }
    }
}
