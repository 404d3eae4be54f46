//! A query's normalized feature rows, assembled from the system's
//! normalized static rows, equal the raw rows pushed through
//! `Normalizer::apply_matrix` bit for bit: on every dataset, for training
//! queries, held-out queries and generated ad-hoc shapes, on a trained
//! system and on its frozen-then-thawed copy.

use ps3::core::{Ps3Config, Ps3System};
use ps3::data::{DatasetConfig, DatasetKind, QueryGenerator, ScaleProfile};
use ps3::query::Query;
use ps3::stats::QueryFeatures;

/// Generated shapes per dataset, beside its training and test queries.
const GENERATED: usize = 100;

fn bits(rows: &[Vec<f64>]) -> Vec<u64> {
    rows.iter().flatten().map(|x| x.to_bits()).collect()
}

/// Every query's assembled rows against `apply_matrix` on `system`.
fn check(system: &Ps3System, queries: &[Query], label: &str) {
    for query in queries {
        let features = QueryFeatures::compute(&system.stats, system.pt.table(), query);
        let mut want = features.rows.clone();
        system.trained.normalizer.apply_matrix(&mut want);
        let got = system.normalized_statics().query_rows(query, &features);
        assert_eq!(bits(&got), bits(&want), "{label}: {query:?}");
    }
}

fn sweep(kind: DatasetKind, seed: u64) {
    let ds = DatasetConfig::new(kind, ScaleProfile::Tiny).build(seed);
    let mut cfg = Ps3Config::default().with_seed(seed);
    cfg.gbdt.n_trees = 8;
    let system = ds.train_system(cfg);

    let mut generator = QueryGenerator::new(&ds.spec, seed);
    let queries: Vec<Query> = ds
        .train_queries
        .iter()
        .chain(&ds.test_queries)
        .cloned()
        .chain((0..GENERATED).map(|_| generator.generate()))
        .collect();
    check(&system, &queries, "trained");

    let dir = std::env::temp_dir().join(format!(
        "ps3_normalized_statics_{kind:?}_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("system.ps3");
    system.freeze(&path).expect("freeze");
    let thawed = Ps3System::thaw(&path).expect("thaw");
    check(&thawed, &queries, "thawed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn query_rows_match_apply_matrix_tpch() {
    sweep(DatasetKind::TpcH, 20);
}

#[test]
fn query_rows_match_apply_matrix_tpcds() {
    sweep(DatasetKind::TpcDs, 21);
}

#[test]
fn query_rows_match_apply_matrix_aria() {
    sweep(DatasetKind::Aria, 22);
}

#[test]
fn query_rows_match_apply_matrix_kdd() {
    sweep(DatasetKind::Kdd, 23);
}
