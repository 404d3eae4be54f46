//! Bit-identity of the split picker: a pick through a [`PickPlan`] — cached
//! on the query's artifacts or built for one pick — selects exactly what
//! the one-pass Algorithm 1 below selects, and leaves the RNG in the same
//! state. The reference is the picker as it was before the split, kept
//! here and nowhere else; it normalizes the raw feature rows itself with
//! `Normalizer::apply_matrix`, so the system's normalized statics are
//! checked too.

use std::collections::HashSet;
use std::sync::Arc;

use ps3::cluster::ClusterAlgo;
use ps3::core::allocate::allocate_samples;
use ps3::core::importance::{importance_groups, ImportanceSource};
use ps3::core::outlier::find_outliers;
use ps3::core::picker::cluster_select;
use ps3::core::{ExemplarRule, Method, PickOutcome, Picker, Ps3Config, Ps3System};
use ps3::data::{DatasetConfig, DatasetKind, ScaleProfile};
use ps3::query::{Query, WeightedPart};
use ps3::stats::QueryFeatures;
use ps3::storage::PartitionId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};

const FRACS: [f64; 10] = [0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0];

/// Algorithm 1 in one pass, as the picker ran it before plans existed.
/// Also says whether it clustered a group that lost members to the
/// outlier cap.
fn reference_pick(
    system: &Ps3System,
    query: &Query,
    features: &QueryFeatures,
    rows: &[Vec<f64>],
    budget: usize,
    rng: &mut StdRng,
    oracle: Option<&[f64]>,
) -> (PickOutcome, bool) {
    let trained = &system.trained;
    let cfg = &trained.config;
    let n_parts = features.num_partitions();
    let budget = budget.min(n_parts);

    let candidates: Vec<usize> = if cfg.use_filter {
        (0..n_parts)
            .filter(|&p| features.selectivity_upper(p) > 0.0)
            .collect()
    } else {
        (0..n_parts).collect()
    };

    let mut selection: Vec<WeightedPart> = Vec::with_capacity(budget);
    let mut chosen_outliers: Vec<usize> = Vec::new();
    if cfg.use_outliers && !query.group_by.is_empty() && budget > 0 {
        let cap = (cfg.outlier_budget_frac * budget as f64).floor() as usize;
        if cap > 0 {
            let outliers = find_outliers(
                &system.stats,
                &query.group_by,
                &candidates,
                cfg.outlier_abs_limit,
                cfg.outlier_rel_limit,
            );
            chosen_outliers = outliers.into_iter().take(cap).collect();
            for &p in &chosen_outliers {
                selection.push(WeightedPart {
                    partition: PartitionId(p),
                    weight: 1.0,
                });
            }
        }
    }
    let taken: HashSet<usize> = chosen_outliers.iter().copied().collect();
    let inliers: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|p| !taken.contains(p))
        .collect();
    let rest_budget = budget - chosen_outliers.len();

    // `trimmed[i]`: an outlier would have joined group `i` (the funnel
    // places each partition by its own row alone).
    let (groups, trimmed): (Vec<Vec<usize>>, Vec<bool>) = if cfg.use_regressors {
        let source = match oracle {
            Some(contributions) => ImportanceSource::Oracle {
                contributions,
                thresholds: &trained.thresholds,
            },
            None => ImportanceSource::Learned(&trained.models),
        };
        let trimmed = importance_groups(&chosen_outliers, rows, &source)
            .iter()
            .map(|g| !g.is_empty())
            .collect();
        (importance_groups(&inliers, rows, &source), trimmed)
    } else {
        (vec![inliers], vec![!chosen_outliers.is_empty()])
    };
    let group_sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    let alloc = allocate_samples(&group_sizes, rest_budget, cfg.alpha);

    let clause_count = query.predicate.as_ref().map_or(0, |p| p.clause_count());
    let cluster_ok = cfg.use_clustering && clause_count <= cfg.fallback_clause_limit;
    let excluded_dims: &[bool] = if cluster_ok {
        &trained.excluded_dims
    } else {
        &[]
    };

    let mut clustering_ms = 0.0;
    let mut clustered_trimmed = false;
    for ((group, &k), &trimmed) in groups.iter().zip(&alloc).zip(&trimmed) {
        if k == 0 || group.is_empty() {
            continue;
        }
        if k >= group.len() {
            for &p in group {
                selection.push(WeightedPart {
                    partition: PartitionId(p),
                    weight: 1.0,
                });
            }
        } else if cluster_ok {
            clustering_ms = 1.0;
            clustered_trimmed |= trimmed;
            selection.extend(cluster_select(
                group,
                rows,
                excluded_dims,
                k,
                cfg.cluster_algo,
                cfg.estimator,
                rng,
            ));
        } else {
            let mut pool = group.clone();
            pool.shuffle(rng);
            pool.truncate(k);
            let w = group.len() as f64 / k as f64;
            for p in pool {
                selection.push(WeightedPart {
                    partition: PartitionId(p),
                    weight: w,
                });
            }
        }
    }

    let outcome = PickOutcome {
        selection,
        total_ms: 0.0,
        clustering_ms,
        group_sizes,
        num_outliers: chosen_outliers.len(),
    };
    (outcome, clustered_trimmed)
}

/// A selection as comparable bits.
fn bits(selection: &[WeightedPart]) -> Vec<(usize, u64)> {
    selection
        .iter()
        .map(|wp| (wp.partition.index(), wp.weight.to_bits()))
        .collect()
}

/// What the sweep exercised, so the suite can insist on its coverage.
#[derive(Default)]
struct Coverage {
    clustered: usize,
    with_outliers: usize,
    clustered_with_outliers: usize,
    clustered_trimmed: usize,
}

/// Compare every plan-based pick path with the reference for one
/// (query, budget, seed), pick by pick and RNG state by RNG state.
fn check(
    system: &Ps3System,
    query: &Query,
    frac: f64,
    seed: u64,
    oracle: Option<&[f64]>,
    cov: &mut Coverage,
) {
    let artifacts = system.artifacts_for(query);
    let budget = system.budget_partitions(frac);
    let ctx = format!(
        "frac {frac}, seed {seed}, oracle {}, {query:?}",
        oracle.is_some()
    );

    let mut rows = artifacts.features.rows.clone();
    system.trained.normalizer.apply_matrix(&mut rows);

    let mut rng = StdRng::seed_from_u64(seed);
    let (want, clustered_trimmed) = reference_pick(
        system,
        query,
        &artifacts.features,
        &rows,
        budget,
        &mut rng,
        oracle,
    );
    let want_next = rng.next_u64();
    cov.clustered += usize::from(want.clustering_ms > 0.0);
    cov.clustered_trimmed += usize::from(clustered_trimmed);
    cov.with_outliers += usize::from(want.num_outliers > 0);
    cov.clustered_with_outliers += usize::from(want.num_outliers > 0 && want.clustering_ms > 0.0);

    let same_outcome = |got: &PickOutcome, rng: &mut StdRng, path: &str| {
        assert_eq!(bits(&got.selection), bits(&want.selection), "{path}: {ctx}");
        assert_eq!(got.group_sizes, want.group_sizes, "{path}: {ctx}");
        assert_eq!(got.num_outliers, want.num_outliers, "{path}: {ctx}");
        assert_eq!(
            got.clustering_ms > 0.0,
            want.clustering_ms > 0.0,
            "{path}: {ctx}"
        );
        assert_eq!(rng.next_u64(), want_next, "{path} RNG state: {ctx}");
    };

    // A one-off plan through the picker's own normalization.
    let picker = Picker {
        trained: &system.trained,
        stats: &system.stats,
        statics: system.normalized_statics(),
        pt: &system.pt,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let got = picker.pick_with_features(query, &artifacts.features, budget, &mut rng, oracle);
    same_outcome(&got, &mut rng, "fresh plan, normalized statics");

    // A one-off plan through the system (raw features, renormalized).
    let mut rng = StdRng::seed_from_u64(seed);
    let (selection, _) = system.select_with_features(
        query,
        &artifacts.features,
        Method::Ps3,
        frac,
        oracle,
        &mut rng,
    );
    assert_eq!(bits(&selection), bits(&want.selection), "select: {ctx}");
    assert_eq!(rng.next_u64(), want_next, "select RNG state: {ctx}");

    // The artifact's cached plan, twice: once possibly building it (and
    // its projections), once reusing them.
    if oracle.is_none() {
        for path in ["cached plan", "cached plan again"] {
            let mut rng = StdRng::seed_from_u64(seed);
            let got = system.pick_outcome(query, frac, &mut rng);
            same_outcome(&got, &mut rng, path);
        }
        assert!(artifacts.pick_plan().is_some());
    }
}

/// A sibling of `system` whose picker toggles differ (they act at pick
/// time, so the trained models carry over unchanged).
fn variant(system: &Ps3System, tweak: impl Fn(&mut Ps3Config)) -> Ps3System {
    let mut trained = system.trained.clone();
    tweak(&mut trained.config);
    Ps3System::from_parts(
        Arc::clone(&system.pt),
        Arc::clone(&system.stats),
        trained,
        system.lss.clone(),
        Arc::clone(&system.training),
    )
}

/// Sweep one dataset: the default picker on every held-out query, budget
/// and several seeds; the oracle funnel; and each config toggle alone.
fn sweep(kind: DatasetKind, seed: u64) {
    let ds = DatasetConfig::new(kind, ScaleProfile::Tiny).build(seed);
    let mut cfg = Ps3Config::default().with_seed(seed);
    cfg.gbdt.n_trees = 8;
    let system = ds.train_system(cfg);
    let mut cov = Coverage::default();

    for query in &ds.test_queries {
        for &frac in &FRACS {
            for pick_seed in [0, 7, 1234] {
                check(&system, query, frac, pick_seed, None, &mut cov);
            }
        }
    }

    // The oracle funnel on training queries (whose contributions exist).
    for (query, contributions) in system
        .training
        .queries
        .iter()
        .zip(&system.training.contributions)
        .take(4)
    {
        for &frac in &FRACS {
            check(&system, query, frac, 3, Some(contributions), &mut cov);
        }
    }

    let tweaks: [fn(&mut Ps3Config); 8] = [
        |c| c.use_clustering = false,
        |c| c.use_outliers = false,
        |c| c.use_regressors = false,
        |c| c.use_filter = false,
        |c| c.fallback_clause_limit = 0,
        |c| c.cluster_algo = ClusterAlgo::HacWard,
        |c| c.estimator = ExemplarRule::Random,
        // Caps outliers at half the budget, so they fire at small budgets.
        |c| c.outlier_budget_frac = 0.5,
    ];
    for tweak in tweaks {
        let system = variant(&system, tweak);
        for query in ds.test_queries.iter().take(6) {
            for &frac in &FRACS {
                check(&system, query, frac, 5, None, &mut cov);
            }
        }
    }

    assert!(cov.clustered > 0, "no pick clustered");
    // The outlier cap must have fired, also beside clustered groups, and
    // it must have trimmed a group that was then clustered (the path that
    // cuts a trimmed projection from the plan's).
    assert!(cov.with_outliers > 0, "no pick selected an outlier");
    assert!(
        cov.clustered_with_outliers > 0,
        "no pick clustered around selected outliers"
    );
    assert!(
        cov.clustered_trimmed > 0,
        "no pick clustered a group the outlier cap trimmed"
    );
}

#[test]
fn plan_picks_match_the_one_pass_picker_tpch() {
    sweep(DatasetKind::TpcH, 10);
}

#[test]
fn plan_picks_match_the_one_pass_picker_tpcds() {
    sweep(DatasetKind::TpcDs, 11);
}

#[test]
fn plan_picks_match_the_one_pass_picker_aria() {
    sweep(DatasetKind::Aria, 12);
}

#[test]
fn plan_picks_match_the_one_pass_picker_kdd() {
    sweep(DatasetKind::Kdd, 13);
}
