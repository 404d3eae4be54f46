//! The three named workloads and their seeded request streams.
//!
//! | workload | dataset | keys | cache behaviour |
//! |---|---|---|---|
//! | `scalar-cold` | KDD | 40 held-out shapes (Zipf), fresh seed per request | answer cache misses, feature cache hits |
//! | `dashboard-hot` | Aria | 64 fixed `(query, budget, seed)` keys (Zipf) | answer cache hits; retrains refresh it |
//! | `adhoc-mixed` | Aria | a never-seen shape per request, a third sketch classes, a third error targets | feature cache misses |
//!
//! See `README.md` beside this crate for why each was chosen.

use std::collections::HashSet;

use ps3_core::QueryRequest;
use ps3_data::{Dataset, DatasetKind, QueryGenerator};
use ps3_query::{Query, QuerySpec, SketchQuery};
use rand::rngs::StdRng;
use rand::Rng;

use crate::schedule::{stream_rng, Zipf};

/// Fixed-fraction budgets of the scalar and ad-hoc streams.
const BUDGETS: [f64; 4] = [0.02, 0.05, 0.1, 0.2];
/// Relative-error targets the ad-hoc stream asks the planner for.
const ERROR_TARGETS: [f64; 3] = [0.05, 0.1, 0.2];
/// Percentile fractions the ad-hoc stream asks for.
const PERCENTILES: [f64; 3] = [0.5, 0.9, 0.99];
/// Zipf exponent of every skewed draw.
const ZIPF_S: f64 = 1.0;
/// Size of the dashboard's fixed key set (well inside the 1024-entry
/// answer cache).
pub const DASHBOARD_KEYS: usize = 64;
/// Seed of the dashboard's fixed key set.
const DASHBOARD_KEY_SEED: u64 = 64;
/// Ad-hoc warm-up requests.
const ADHOC_WARMUP: usize = 50;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScalarCold,
    DashboardHot,
    AdhocMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ScalarCold,
        Workload::DashboardHot,
        Workload::AdhocMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScalarCold => "scalar-cold",
            Workload::DashboardHot => "dashboard-hot",
            Workload::AdhocMixed => "adhoc-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn dataset(self) -> DatasetKind {
        match self {
            Workload::ScalarCold => DatasetKind::Kdd,
            Workload::DashboardHot | Workload::AdhocMixed => DatasetKind::Aria,
        }
    }

    /// The table name requests are routed to.
    pub fn table(self) -> &'static str {
        match self.dataset() {
            DatasetKind::Kdd => "kdd",
            _ => "aria",
        }
    }

    /// Open-loop arrival rate (requests per second): fixed per workload,
    /// well below the saturation throughput of a 2-core machine, so the
    /// phase measures latency rather than a growing backlog.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::ScalarCold => 250.0,
            Workload::DashboardHot => 500.0,
            Workload::AdhocMixed => 150.0,
        }
    }

    /// Open-loop requests between two writer retrains, if the workload has
    /// a writer.
    pub fn retrain_every(self) -> Option<usize> {
        match self {
            Workload::DashboardHot => Some(1000),
            _ => None,
        }
    }
}

/// A seeded request stream of one workload.
pub struct RequestGen<'a> {
    workload: Workload,
    ds: &'a Dataset,
    rng: StdRng,
    zipf: Zipf,
    /// `dashboard-hot`: the fixed key set.
    keys: Vec<QueryRequest>,
    /// `adhoc-mixed`: shape generator and every feature-cache key handed
    /// out so far (plus the dataset's own workload shapes).
    shapes: Option<QueryGenerator<'a>>,
    seen: HashSet<u64>,
}

impl<'a> RequestGen<'a> {
    /// The request stream `stream` of `workload` under `seed`. The
    /// dashboard's key set is fixed: the seed only drives the draws.
    pub fn new(workload: Workload, ds: &'a Dataset, seed: u64, stream: &str) -> Self {
        let rng = stream_rng(seed, stream);
        let table = workload.table();
        let (zipf, keys) = match workload {
            Workload::DashboardHot => {
                let mut krng = stream_rng(DASHBOARD_KEY_SEED, "dashboard-keys");
                let mut seen = HashSet::new();
                let mut keys = Vec::with_capacity(DASHBOARD_KEYS);
                while keys.len() < DASHBOARD_KEYS {
                    let qi = krng.gen_range(0..ds.test_queries.len());
                    let budget = BUDGETS[krng.gen_range(1..BUDGETS.len())];
                    let key_seed = krng.gen_range(0..16u64);
                    if seen.insert((qi, budget.to_bits(), key_seed)) {
                        keys.push(
                            QueryRequest::ps3(ds.test_queries[qi].clone(), budget, key_seed)
                                .on_table(table),
                        );
                    }
                }
                (Zipf::new(DASHBOARD_KEYS, ZIPF_S), keys)
            }
            _ => (Zipf::new(ds.test_queries.len(), ZIPF_S), Vec::new()),
        };
        let (shapes, seen) = match workload {
            Workload::AdhocMixed => {
                let mut gen_rng = stream_rng(seed, stream);
                let gen = QueryGenerator::new(&ds.spec, gen_rng.gen());
                let seen = ds
                    .train_queries
                    .iter()
                    .chain(&ds.test_queries)
                    .map(Query::fingerprint)
                    .collect();
                (Some(gen), seen)
            }
            _ => (None, HashSet::new()),
        };
        Self {
            workload,
            ds,
            rng,
            zipf,
            keys,
            shapes,
            seen,
        }
    }

    /// Requests that bring the caches to the workload's steady state before
    /// anything is timed: every held-out shape once (`scalar-cold`), every
    /// dashboard key once, or a few ad-hoc requests (code paths and
    /// allocator only: ad-hoc shapes never repeat).
    pub fn warmup(&mut self) -> Vec<QueryRequest> {
        match self.workload {
            Workload::ScalarCold => {
                let table = self.workload.table();
                let ds = self.ds;
                ds.test_queries
                    .iter()
                    .map(|q| QueryRequest::ps3(q.clone(), 0.05, self.rng.gen()).on_table(table))
                    .collect()
            }
            Workload::DashboardHot => self.keys.clone(),
            Workload::AdhocMixed => (0..ADHOC_WARMUP).map(|_| self.next_request()).collect(),
        }
    }

    pub fn next_request(&mut self) -> QueryRequest {
        let table = self.workload.table();
        match self.workload {
            Workload::ScalarCold => {
                let qi = self.zipf.sample(&mut self.rng);
                let budget = BUDGETS[self.rng.gen_range(0..BUDGETS.len())];
                let seed: u64 = self.rng.gen();
                QueryRequest::ps3(self.ds.test_queries[qi].clone(), budget, seed).on_table(table)
            }
            Workload::DashboardHot => self.keys[self.zipf.sample(&mut self.rng)].clone(),
            Workload::AdhocMixed => {
                let spec = self.fresh_shape();
                let budget = BUDGETS[self.rng.gen_range(0..BUDGETS.len())];
                let seed: u64 = self.rng.gen();
                let req = QueryRequest::ps3(spec, budget, seed).on_table(table);
                if self.rng.gen_range(0..3) == 0 {
                    req.with_error_target(ERROR_TARGETS[self.rng.gen_range(0..ERROR_TARGETS.len())])
                } else {
                    req
                }
            }
        }
    }

    /// A query shape whose feature-cache key (the query itself, or a sketch
    /// query's `COUNT(*)` proxy over its predicate) was never handed out by
    /// this stream.
    fn fresh_shape(&mut self) -> QuerySpec {
        let schema = self.ds.pt.table().schema();
        loop {
            let q = self
                .shapes
                .as_mut()
                .expect("ad-hoc stream has a shape generator")
                .generate();
            // Every ad-hoc shape carries a predicate: the space of
            // predicate-free shapes is small enough that two streams would
            // repeat one.
            if q.predicate.is_none() {
                continue;
            }
            let spec: QuerySpec = match self.rng.gen_range(0..3) {
                0 => {
                    let pick = |names: &[&str], rng: &mut StdRng| {
                        schema.expect_col(names[rng.gen_range(0..names.len())])
                    };
                    let sketch = match self.rng.gen_range(0..3) {
                        0 => SketchQuery::percentile(
                            pick(&["olsize", "records_received_count", "infl"], &mut self.rng),
                            PERCENTILES[self.rng.gen_range(0..PERCENTILES.len())],
                        ),
                        1 => SketchQuery::distinct(pick(
                            &["TenantId", "AppInfo_Version", "UserInfo_TimeZone"],
                            &mut self.rng,
                        )),
                        _ => SketchQuery::top_k(
                            pick(
                                &["TenantId", "AppInfo_Version", "UserInfo_TimeZone"],
                                &mut self.rng,
                            ),
                            10,
                        ),
                    };
                    match q.predicate {
                        Some(p) => sketch.filtered(p).into(),
                        None => sketch.into(),
                    }
                }
                _ => q.into(),
            };
            if self.seen.insert(feature_key(&spec)) {
                return spec;
            }
        }
    }
}

/// The key of the system's feature cache a request resolves: a scalar
/// query's own fingerprint, or the `COUNT(*)` proxy a sketch query picks
/// partitions through.
pub fn feature_key(spec: &QuerySpec) -> u64 {
    match spec {
        QuerySpec::Scalar(q) => q.fingerprint(),
        QuerySpec::Sketch(s) => sketch_proxy(s).fingerprint(),
    }
}

/// `COUNT(*)` under a sketch query's predicate: the scalar query a sketch
/// query selects partitions through.
pub fn sketch_proxy(s: &SketchQuery) -> Query {
    Query::new(
        vec![ps3_query::AggExpr::count()],
        s.predicate.clone(),
        vec![],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_data::{DatasetConfig, ScaleProfile};

    fn fingerprints(ds: &Dataset, w: Workload, seed: u64, stream: &str) -> Vec<(u64, u64, u64)> {
        let mut gen = RequestGen::new(w, ds, seed, stream);
        (0..200)
            .map(|_| {
                let r = gen.next_request();
                (
                    r.query.fingerprint(),
                    r.seed,
                    r.budget.as_fraction().unwrap_or(-1.0).to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(3);
        for w in Workload::ALL {
            let a = fingerprints(&ds, w, 9, "open");
            assert_eq!(a, fingerprints(&ds, w, 9, "open"), "{}", w.name());
            assert_ne!(a, fingerprints(&ds, w, 10, "open"), "{}", w.name());
        }
    }

    #[test]
    fn adhoc_shapes_never_repeat_a_feature_key() {
        let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(4);
        let mut gen = RequestGen::new(Workload::AdhocMixed, &ds, 1, "open");
        let mut keys = HashSet::new();
        let (mut sketches, mut targets) = (0, 0);
        for _ in 0..600 {
            let r = gen.next_request();
            assert!(keys.insert(feature_key(&r.query)));
            sketches += usize::from(matches!(r.query, QuerySpec::Sketch(_)));
            targets += usize::from(r.budget.as_fraction().is_none());
        }
        assert!((150..250).contains(&sketches), "{sketches}");
        assert!((150..250).contains(&targets), "{targets}");
    }

    #[test]
    fn dashboard_draws_from_a_fixed_key_set() {
        let ds = DatasetConfig::new(DatasetKind::Aria, ScaleProfile::Tiny).build(5);
        let a: HashSet<_> = fingerprints(&ds, Workload::DashboardHot, 2, "open")
            .into_iter()
            .collect();
        let b: HashSet<_> = fingerprints(&ds, Workload::DashboardHot, 2, "closed")
            .into_iter()
            .collect();
        assert!(a.len() <= DASHBOARD_KEYS && b.len() <= DASHBOARD_KEYS);
        assert!(a.union(&b).count() <= DASHBOARD_KEYS);
    }
}
