//! The top-level facade: train once per (dataset, layout, workload), then
//! answer queries under any method and budget.
//!
//! A trained [`Ps3System`] is immutable shared state: every query-path
//! method takes `&self` and threads an explicit RNG, so one system behind an
//! `Arc` serves any number of threads concurrently (see
//! [`crate::serve::ServeHandle`]). Per-query randomness comes either from a
//! caller-owned [`StdRng`] or from a seed via [`query_rng`], which makes
//! results a pure function of `(query, method, budget, seed)` — the same
//! request answered on eight threads is bit-identical on all of them.
//!
//! Every answer — scalar or sketch class, one-shot or progressive, from a
//! direct call or through the router — runs one staged pipeline:
//! artifacts → select → execute → estimate/merge. [`Ps3System::answer`],
//! [`Ps3System::answer_seeded`] and [`Ps3System::answer_spec_on`] are
//! one-line entry points into it; progressive refinement is an optional
//! sink on the execute stage, not a second copy of the pipeline.
//!
//! Raw [`QueryFeatures`] are served from a bounded LRU keyed by
//! [`Query::fingerprint`], so budget sweeps and repeated predicate shapes
//! skip `QueryFeatures::compute` — the dominant pre-picking cost — and the
//! diagnostics path ([`Ps3System::pick_outcome`]) sees exactly the features
//! the serving path used.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use ps3_query::{
    execute_partials_on, execute_table, AggExpr, AggFunc, CompiledQuery, CompiledSketchQuery,
    GroupKey, PartialAnswer, Query, QueryAnswer, QuerySpec, SketchFunc, SketchQuery, WeightedPart,
};
use ps3_runtime::{CacheStats, Mailbox, SharedLru, ThreadPool};
use ps3_sketch::{AnswerSketch, DistinctSketch};
use ps3_stats::{NormalizedStatics, QueryFeatures, TableStats};
use ps3_storage::PartitionedTable;

use crate::baselines::{random_filter_selection, random_selection, LssModel};
use crate::config::Ps3Config;
use crate::estimator::{estimate_from_totals, AggError, ErrorEstimate};
use crate::picker::{PickOutcome, PickPlan, Picker};
use crate::train::{TrainedPs3, TrainingData};

/// The sampling methods compared throughout the evaluation (§5.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Uniform partition sampling.
    Random,
    /// Uniform sampling over partitions passing the selectivity filter.
    RandomFilter,
    /// Modified Learned Stratified Sampling (Appendix C.1).
    Lss,
    /// The full PS3 picker.
    Ps3,
}

impl Method {
    /// All methods in plot order.
    pub const ALL: [Method; 4] = [
        Method::Random,
        Method::RandomFilter,
        Method::Lss,
        Method::Ps3,
    ];

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Method::Random => "random",
            Method::RandomFilter => "random+filter",
            Method::Lss => "LSS",
            Method::Ps3 => "PS3",
        }
    }
}

/// Everything a caller can know about *how good* an answer is and *what it
/// cost* — one shape shared by in-process outcomes ([`AnswerOutcome`]) and
/// wire answers (`ps3_net`'s `RemoteAnswer`), so both surfaces read
/// identical metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerMeta {
    /// How many partitions were read.
    pub partitions_read: u32,
    /// Picker latency (ms); 0 for the trivial baselines.
    pub picker_ms: f64,
    /// Estimated sampling error, per aggregate and summarized.
    pub error_estimate: ErrorEstimate,
    /// The fraction the answer was executed at (after any planning).
    pub planned_frac: f64,
    /// True when the answer is exact: a full read, or a selection covering
    /// every partition that could contain qualifying rows at weight 1.
    pub exact: bool,
}

/// One approximate answer plus how it was produced.
#[derive(Debug, Clone)]
pub struct AnswerOutcome {
    /// The combined approximate answer.
    pub answer: QueryAnswer,
    /// The weighted partitions that were read.
    pub selection: Vec<WeightedPart>,
    /// Quality and cost metadata (shared shape with the wire client).
    pub meta: AnswerMeta,
    /// For sketch-class queries, the *unweighted* merge of the picked
    /// partitions' answer sketches — confluent, so bit-identical to a
    /// single pass over the concatenated picked rows regardless of pick
    /// order. `None` for scalar queries. The wire layer ships it so remote
    /// clients can merge further or re-derive quantiles at other `p`.
    pub sketch: Option<AnswerSketch>,
}

/// One refining answer from the progressive execution path: the weighted
/// combination of the first `partitions_done` selected partitions, with the
/// error estimate over that prefix. The *final* refinement is not emitted
/// as an update — it is the ordinary [`AnswerOutcome`], bit-identical to
/// the one-shot path.
#[derive(Debug, Clone)]
pub struct ProgressUpdate {
    /// 0-based update sequence number.
    pub seq: u32,
    /// Partitions combined so far (monotone increasing across updates).
    pub partitions_done: u32,
    /// Total partitions in the selection.
    pub partitions_total: u32,
    /// The prefix combination, finalized.
    pub answer: QueryAnswer,
    /// Summary relative error of the prefix (NaN = no signal yet).
    pub rel_err: f64,
}

/// The deterministic per-request RNG used by the seeded entry points:
/// mixes the caller's seed with the query fingerprint so distinct queries
/// draw independent streams while `(query, seed)` fully determines the
/// result.
pub fn query_rng(query: &Query, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ query.fingerprint().rotate_left(17))
}

/// [`query_rng`] over a [`QuerySpec`] of either class: the same
/// fingerprint-mixing scheme, so for a scalar spec this is exactly
/// `query_rng(&q, seed)` and every pre-spec cache key and answer stays
/// bit-identical.
pub fn spec_rng(spec: &QuerySpec, seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ spec.fingerprint().rotate_left(17))
}

/// The scalar proxy a sketch query selects partitions through: `COUNT(*)`
/// under the same predicate. Partition *relevance* is a property of the
/// predicate alone, so the picker, feature cache, and exclusion machinery
/// apply to sketch queries without modification — and two sketch queries
/// sharing a predicate share one cached feature computation.
fn sketch_proxy(query: &SketchQuery) -> Query {
    Query::new(vec![AggExpr::count()], query.predicate.clone(), vec![])
}

/// A one-value global-group answer (the shape `PERCENTILE` / `DISTINCT`
/// results take).
fn global_answer(v: f64) -> QueryAnswer {
    QueryAnswer {
        groups: std::iter::once((GroupKey::global(), vec![v])).collect(),
    }
}

/// Everything the serving path derives from one query shape, computed once
/// per [`Query::fingerprint`] and cached: the raw masked feature matrix, the
/// query compiled to columnar kernels (what `execute_partition` runs), and
/// — built by the first PS3 pick that uses these artifacts — the
/// seed-independent half of that pick ([`PickPlan`]), which holds every
/// group projection a pick may cluster. Normalized rows are not kept: that
/// first pick assembles them from the system's [`NormalizedStatics`] to
/// build the plan, and an LSS pick assembles them per call.
#[derive(Debug)]
pub struct QueryArtifacts {
    /// Raw masked features with per-partition selectivity slots.
    pub features: QueryFeatures,
    /// The query lowered to kernel programs against this table.
    pub compiled: CompiledQuery,
    /// The learned picker's plan for this query, built lazily.
    plan: OnceLock<PickPlan>,
}

impl QueryArtifacts {
    /// The pick plan, if a PS3 pick has built it.
    pub fn pick_plan(&self) -> Option<&PickPlan> {
        self.plan.get()
    }
}

/// Where a PS3 pick takes its [`PickPlan`] from.
enum PlanSource<'a> {
    /// The query's cached artifacts: built on first use, then reused.
    Cached(&'a OnceLock<PickPlan>),
    /// A one-off plan, with `Some` oracle contributions in place of the
    /// learned funnel (Appendix C.2).
    Fresh(Option<&'a [f64]>),
}

/// A trained PS3 deployment over one partitioned table. Immutable after
/// training; share it with `Arc<Ps3System>` and call the `&self` query
/// methods from any number of threads.
pub struct Ps3System {
    /// The data.
    pub pt: Arc<PartitionedTable>,
    /// Its summary statistics.
    pub stats: Arc<TableStats>,
    /// Trained picker state. The normalized statics are built from its
    /// normalizer when the system is, so never replace the normalizer.
    /// Cached pick plans derive from the rest: change `config` only before
    /// the first query, or only through paths that build their own plans
    /// ([`Self::select_with_features`]).
    pub trained: TrainedPs3,
    /// Trained LSS baseline.
    pub lss: LssModel,
    /// Cached training-workload execution (reused by the benches and
    /// shared, not recomputed, across warm retrain generations).
    pub training: Arc<TrainingData>,
    /// The static feature rows through `trained.normalizer`, which every
    /// query's normalized rows are assembled from.
    statics: NormalizedStatics,
    /// Bounded per-query artifact cache, keyed by [`Query::fingerprint`].
    features: SharedLru<u64, Arc<QueryArtifacts>>,
}

/// What a warm incremental retrain did (see [`Ps3System::retrain_from`]).
#[derive(Debug, Clone, Copy)]
pub struct RetrainReport {
    /// Assign-update sweeps the partition strata took to re-converge from
    /// the previous generation's centroids.
    pub sweeps: u32,
    /// Partition count of the retrained table.
    pub partitions: u32,
}

/// Budget fractions the LSS strata sweep is trained at (the harness grid).
pub const LSS_BUDGET_GRID: [f64; 6] = [0.02, 0.05, 0.1, 0.2, 0.35, 0.5];

/// Convert a budget fraction into a partition count (≥ 1) for a table of
/// `num_partitions` partitions.
pub fn budget_partitions(frac: f64, num_partitions: usize) -> usize {
    ((frac * num_partitions as f64).round() as usize).clamp(1, num_partitions)
}

impl Ps3System {
    /// Train every learned component on `train_queries`.
    pub fn train(
        pt: Arc<PartitionedTable>,
        stats: Arc<TableStats>,
        train_queries: &[Query],
        cfg: Ps3Config,
    ) -> Self {
        let feature_cache_cap = cfg.feature_cache_cap;
        let training = TrainingData::compute(&pt, &stats, train_queries, cfg.threads);
        let trained = TrainedPs3::train(&training, cfg.clone());
        let statics = NormalizedStatics::build(&stats, &trained.normalizer);
        let normalized: Vec<Vec<Vec<f64>>> = training
            .queries
            .iter()
            .zip(&training.features)
            .map(|(q, f)| statics.query_rows(q, f))
            .collect();
        let lss = LssModel::train(
            &training,
            &normalized,
            &cfg.gbdt,
            &LSS_BUDGET_GRID,
            cfg.fs_eval_queries,
            cfg.seed,
        );
        Self {
            pt,
            stats,
            trained,
            lss,
            training: Arc::new(training),
            statics,
            features: SharedLru::new(feature_cache_cap),
        }
    }

    /// Reassemble a system from already-trained parts (the thaw path in
    /// [`crate::persist`]). The feature LRU starts empty at the persisted
    /// configuration's capacity and the normalized statics are rebuilt from
    /// `stats` and the trained normalizer; everything else is used as
    /// given, so a system rebuilt from its own parts answers
    /// bit-identically.
    pub fn from_parts(
        pt: Arc<PartitionedTable>,
        stats: Arc<TableStats>,
        trained: TrainedPs3,
        lss: LssModel,
        training: Arc<TrainingData>,
    ) -> Self {
        let feature_cache_cap = trained.config.feature_cache_cap;
        let statics = NormalizedStatics::build(&stats, &trained.normalizer);
        Self {
            pt,
            stats,
            trained,
            lss,
            training,
            statics,
            features: SharedLru::new(feature_cache_cap),
        }
    }

    /// Write this trained system to `path` as one flat artifact
    /// ([`crate::persist::freeze`]).
    pub fn freeze(&self, path: &std::path::Path) -> std::io::Result<()> {
        crate::persist::freeze(self, path)
    }

    /// Map the artifact at `path` back into a serving-ready system
    /// ([`crate::persist::thaw`]).
    pub fn thaw(path: &std::path::Path) -> Result<Self, ps3_storage::format::FormatError> {
        crate::persist::thaw(path)
    }

    /// Warm incremental retrain: derive the next-generation system for
    /// (possibly grown) `pt`/`stats` from `prev` without re-executing the
    /// training workload or re-fitting any model. The new table's static
    /// rows go through `prev`'s normalizer once; per training query, the
    /// feature matrix is recomputed against the *new* table and its
    /// normalized rows assembled from them. The workload-pooled rows then
    /// warm-start the partition strata from the previous centroids
    /// ([`TrainedPs3::retrain_from`]). Everything on the query-answer path
    /// (models, thresholds, normalizer, exclusions, LSS) carries over
    /// unchanged, so on an unchanged table the new system's answers are
    /// bit-identical to `prev`'s.
    pub fn retrain_from(
        prev: &Ps3System,
        pt: Arc<PartitionedTable>,
        stats: Arc<TableStats>,
    ) -> (Self, RetrainReport) {
        let statics = NormalizedStatics::build(&stats, &prev.trained.normalizer);
        let normalized: Vec<Vec<Vec<f64>>> = ps3_runtime::fan_out(
            prev.trained.config.threads,
            prev.training.queries.len(),
            |qi| {
                let q = &prev.training.queries[qi];
                statics.query_rows(q, &QueryFeatures::compute(&stats, pt.table(), q))
            },
        );
        let pooled = crate::train::pooled_partition_rows(&normalized);
        let (trained, sweeps) = TrainedPs3::retrain_from(&prev.trained, &pooled);
        let report = RetrainReport {
            sweeps: sweeps as u32,
            partitions: pt.num_partitions() as u32,
        };
        let system = Self {
            pt,
            stats,
            trained,
            lss: prev.lss.clone(),
            training: Arc::clone(&prev.training),
            statics,
            features: SharedLru::new(prev.trained.config.feature_cache_cap),
        };
        (system, report)
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.pt.num_partitions()
    }

    /// Convert a budget fraction into a partition count (≥ 1).
    pub fn budget_partitions(&self, frac: f64) -> usize {
        budget_partitions(frac, self.num_partitions())
    }

    /// The exact answer (reads everything).
    pub fn exact_answer(&self, query: &Query) -> QueryAnswer {
        execute_table(&self.pt, query)
    }

    /// Per-query artifacts (raw features + compiled kernels, and the pick
    /// plan once a PS3 pick builds it), served from the bounded LRU cache.
    /// Both the serving path ([`Self::answer`]) and the diagnostics path
    /// ([`Self::pick_outcome`]) resolve artifacts here, so they always
    /// agree; a budget sweep over one query computes and compiles
    /// everything exactly once.
    pub fn artifacts_for(&self, query: &Query) -> Arc<QueryArtifacts> {
        self.features.get_or_insert_with(query.fingerprint(), || {
            Arc::new(QueryArtifacts {
                features: QueryFeatures::compute(&self.stats, self.pt.table(), query),
                compiled: CompiledQuery::compile(self.pt.table(), query),
                plan: OnceLock::new(),
            })
        })
    }

    /// The static feature rows through the trained normalizer, which every
    /// query's normalized rows are assembled from.
    pub fn normalized_statics(&self) -> &NormalizedStatics {
        &self.statics
    }

    /// Hit/miss/occupancy counters of the artifact cache. `misses` equals
    /// the number of `QueryFeatures::compute` (and `CompiledQuery::compile`)
    /// calls made on behalf of the query path.
    pub fn feature_cache_stats(&self) -> CacheStats {
        self.features.stats()
    }

    /// Select partitions for `query` under `method` at `frac` of the data.
    ///
    /// `features` must be the raw [`QueryFeatures`] of this query; PS3's
    /// [`PickPlan`] is built here per call. The serving path goes through
    /// [`Self::artifacts_for`] instead, which caches it. `oracle`
    /// optionally substitutes true contributions for the learned funnel.
    /// All randomness is drawn from the caller's `rng`, so the selection is
    /// a pure function of the arguments.
    pub fn select_with_features(
        &self,
        query: &Query,
        features: &QueryFeatures,
        method: Method,
        frac: f64,
        oracle: Option<&[f64]>,
        rng: &mut StdRng,
    ) -> (Vec<WeightedPart>, f64) {
        self.select_prepared(
            query,
            features,
            PlanSource::Fresh(oracle),
            method,
            frac,
            rng,
        )
    }

    /// [`Self::select_with_features`] with the source of PS3's plan
    /// supplied by the caller.
    fn select_prepared(
        &self,
        query: &Query,
        features: &QueryFeatures,
        plan: PlanSource<'_>,
        method: Method,
        frac: f64,
        rng: &mut StdRng,
    ) -> (Vec<WeightedPart>, f64) {
        let budget = self.budget_partitions(frac);
        let n = self.num_partitions();
        match method {
            Method::Random => (random_selection(n, budget, rng), 0.0),
            Method::RandomFilter => {
                let candidates: Vec<usize> = (0..n)
                    .filter(|&p| features.selectivity_upper(p) > 0.0)
                    .collect();
                (random_filter_selection(&candidates, budget, rng), 0.0)
            }
            Method::Lss => {
                let candidates: Vec<usize> = (0..n)
                    .filter(|&p| features.selectivity_upper(p) > 0.0)
                    .collect();
                let rows = self.statics.query_rows(query, features);
                let sel = self.lss.pick(&rows, &candidates, budget, frac, rng);
                (sel, 0.0)
            }
            Method::Ps3 => {
                let out = self.pick_prepared(query, features, plan, budget, rng);
                (out.selection, out.total_ms)
            }
        }
    }

    /// One PS3 pick of `budget` partitions; `total_ms` includes building
    /// the plan when this pick builds it (for a cached plan, also
    /// assembling the normalized rows it is built from).
    fn pick_prepared(
        &self,
        query: &Query,
        features: &QueryFeatures,
        plan: PlanSource<'_>,
        budget: usize,
        rng: &mut StdRng,
    ) -> PickOutcome {
        let started = Instant::now();
        let picker = Picker {
            trained: &self.trained,
            stats: &self.stats,
            statics: &self.statics,
            pt: &self.pt,
        };
        match plan {
            PlanSource::Cached(cell) => {
                let plan = cell.get_or_init(|| {
                    let rows = self.statics.query_rows(query, features);
                    picker.plan(query, features, &rows, None)
                });
                picker.run(plan, budget, rng, started)
            }
            PlanSource::Fresh(oracle) => {
                picker.pick_with_features(query, features, budget, rng, oracle)
            }
        }
    }

    /// Full pick diagnostics for PS3 (Table 5 timing, Figure 4 lesion).
    /// Features and the pick plan come from the same cache the serving
    /// path uses.
    pub fn pick_outcome(&self, query: &Query, frac: f64, rng: &mut StdRng) -> PickOutcome {
        let artifacts = self.artifacts_for(query);
        self.pick_prepared(
            query,
            &artifacts.features,
            PlanSource::Cached(&artifacts.plan),
            self.budget_partitions(frac),
            rng,
        )
    }

    /// Answer `query` approximately: select partitions, execute them (in
    /// parallel over the shared pool for large selections), and combine the
    /// weighted partial answers (§2.4). Callable concurrently on a shared
    /// system; the result is a pure function of the arguments and the RNG
    /// state.
    pub fn answer(
        &self,
        query: &Query,
        method: Method,
        frac: f64,
        rng: &mut StdRng,
    ) -> AnswerOutcome {
        let spec = QuerySpec::Scalar(query.clone());
        self.run(&spec, method, frac, rng, &ThreadPool::global(), None)
    }

    /// [`Self::answer`] with the RNG derived from `(query, seed)` via
    /// [`query_rng`] — the serving entry point: same request, same seed,
    /// same answer, from any thread.
    pub fn answer_seeded(
        &self,
        query: &Query,
        method: Method,
        frac: f64,
        seed: u64,
    ) -> AnswerOutcome {
        self.answer(query, method, frac, &mut query_rng(query, seed))
    }

    /// Answer a [`QuerySpec`] of either class with partition execution
    /// pinned to `pool` (a 1-worker pool executes serially on the caller);
    /// the result is bit-identical across pools. The router's uncached path
    /// runs the same pipeline.
    ///
    /// A sketch-class query (`PERCENTILE` / `COUNT(DISTINCT)` / `TOP_K`)
    /// picks partitions exactly like a scalar query — the picker sees a
    /// `COUNT(*)` proxy with the same predicate, so every method, feature
    /// computation, and exclusion applies unchanged — then builds one
    /// answer sketch per picked partition with the fused kernels and
    /// merges them. The merged sketch is confluent: bit-identical to a
    /// single pass over the concatenated picked rows, whatever order the
    /// picker produced. Error semantics per class (see [`ErrorEstimate`]'s
    /// honesty rules):
    ///
    /// * `PERCENTILE` — rank-error CI: the sketch's own quantiles at
    ///   `p ± 1.96·√(p(1−p)/n)` widened by the sketch's relative value
    ///   error `alpha`; never exact (the sketch itself approximates).
    /// * `COUNT(DISTINCT)` — the merged estimate is *unscaled* (distinct
    ///   counts do not extrapolate linearly), so a partial selection
    ///   honestly reports NaN; a covering selection reports the standard
    ///   HLL error. Never exact.
    /// * `TOP_K` — weighted per-key count estimates through the same
    ///   estimator scalar `COUNT` uses; exact when the selection provably
    ///   covers every qualifying partition at weight 1 (counts are exact).
    pub fn answer_spec_on(
        &self,
        spec: &QuerySpec,
        method: Method,
        frac: f64,
        rng: &mut StdRng,
        pool: &ThreadPool,
    ) -> AnswerOutcome {
        self.run(spec, method, frac, rng, pool, None)
    }

    /// The answer pipeline every entry point runs, for both query classes.
    /// Its stages:
    ///
    /// 1. **artifacts** — the query's cached features, compiled kernels and
    ///    pick plan (a sketch query's come from its `COUNT(*)` proxy);
    /// 2. **select** — the method's weighted partition choice;
    /// 3. **execute** — the selected partitions on `pool`;
    /// 4. **estimate/merge** — the weighted combination and its error
    ///    estimate (scalar), or the confluent sketch merge (sketch).
    ///
    /// With a `progress` sink, a scalar selection executes in at most four
    /// batches; after each non-final batch the sink receives the weighted
    /// combination of the prefix read so far plus its error estimate. The
    /// outcome is **bit-identical** with or without a sink: both add the
    /// same per-partition partials in the same selection order, and
    /// batching never reorders an `f64` accumulation. Sketch queries
    /// ignore the sink: a partial sketch merge is not a partial answer of
    /// the same shape.
    pub(crate) fn run(
        &self,
        spec: &QuerySpec,
        method: Method,
        frac: f64,
        rng: &mut StdRng,
        pool: &ThreadPool,
        progress: Option<&Mailbox<ProgressUpdate>>,
    ) -> AnswerOutcome {
        let proxy;
        let query = match spec {
            QuerySpec::Scalar(q) => q,
            QuerySpec::Sketch(q) => {
                proxy = sketch_proxy(q);
                &proxy
            }
        };
        let artifacts = self.artifacts_for(query);
        let (selection, picker_ms) = self.select_prepared(
            query,
            &artifacts.features,
            PlanSource::Cached(&artifacts.plan),
            method,
            frac,
            rng,
        );
        let covering = self.selection_is_exact(&artifacts.features, frac, &selection);
        let (answer, error_estimate, exact, sketch) = match spec {
            QuerySpec::Scalar(q) => {
                let (answer, estimate) = self.combine_weighted(
                    q,
                    &artifacts.compiled,
                    &selection,
                    covering,
                    pool,
                    progress,
                );
                (answer, estimate, covering, None)
            }
            QuerySpec::Sketch(q) => {
                let (answer, estimate, exact, merged) =
                    self.merge_sketches(q, &selection, covering, pool);
                (answer, estimate, exact, Some(merged))
            }
        };
        AnswerOutcome {
            answer,
            meta: AnswerMeta {
                partitions_read: selection.len() as u32,
                picker_ms,
                error_estimate,
                planned_frac: frac,
                exact,
            },
            selection,
            sketch,
        }
    }

    /// True when `selection` provably reproduces the exact answer: the
    /// budget is a full read, or every partition that could contain a
    /// qualifying row (positive selectivity upper bound) is in the
    /// selection at weight exactly 1 — zero-upper-bound partitions
    /// contribute nothing at any weight.
    fn selection_is_exact(
        &self,
        features: &QueryFeatures,
        frac: f64,
        sel: &[WeightedPart],
    ) -> bool {
        if frac >= 1.0 {
            return true;
        }
        let mut weight_of = std::collections::HashMap::with_capacity(sel.len());
        for wp in sel {
            weight_of.insert(wp.partition.index(), wp.weight);
        }
        (0..self.num_partitions())
            .filter(|&p| features.selectivity_upper(p) > 0.0)
            .all(|p| weight_of.get(&p) == Some(&1.0))
    }

    /// The execute and estimate stages for a scalar query: run `selection`
    /// through [`execute_partials_on`] (whole, or in the batches a
    /// `progress` sink sees), combine the partials with their weights in
    /// selection order, and estimate the error from the per-partition slot
    /// totals. A `covering` selection short-circuits to a zero-error
    /// estimate.
    fn combine_weighted(
        &self,
        query: &Query,
        compiled: &CompiledQuery,
        selection: &[WeightedPart],
        covering: bool,
        pool: &ThreadPool,
        progress: Option<&Mailbox<ProgressUpdate>>,
    ) -> (QueryAnswer, ErrorEstimate) {
        let funcs: Vec<AggFunc> = query.aggregates.iter().map(|a| a.func).collect();
        let m = selection.len();
        let batch = if progress.is_some() { m.div_ceil(4) } else { m };
        let mut acc = PartialAnswer {
            groups: std::collections::HashMap::new(),
            slots: compiled.slot_count(),
        };
        let mut totals: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut weights: Vec<f64> = Vec::with_capacity(m);
        // Every batch but the last is followed by one update, so an
        // update's sequence number is its batch's index.
        for (seq, chunk) in selection.chunks(batch.max(1)).enumerate() {
            let partials = execute_partials_on(&self.pt, compiled, chunk, pool);
            for (wp, part) in chunk.iter().zip(&partials) {
                totals.push(part.slot_totals());
                weights.push(wp.weight);
                acc.add_weighted(part, wp.weight);
            }
            let done = totals.len();
            if let Some(sink) = progress.filter(|_| done < m) {
                let estimate =
                    estimate_from_totals(&funcs, &totals, &weights, self.num_partitions());
                sink.push(ProgressUpdate {
                    seq: seq as u32,
                    partitions_done: done as u32,
                    partitions_total: m as u32,
                    answer: acc.finalize_funcs(&funcs),
                    rel_err: estimate.rel_err,
                });
            }
        }
        let estimate = if covering {
            ErrorEstimate::exact_for(funcs.len())
        } else {
            estimate_from_totals(&funcs, &totals, &weights, self.num_partitions())
        };
        (compiled.finalize(&acc), estimate)
    }

    /// The execute and merge stages for a sketch query (error semantics on
    /// [`Self::answer_spec_on`]): one answer sketch per selected
    /// partition, merged; the derived answer, its error estimate, whether
    /// it is exact, and the merged sketch.
    fn merge_sketches(
        &self,
        query: &SketchQuery,
        selection: &[WeightedPart],
        covering: bool,
        pool: &ThreadPool,
    ) -> (QueryAnswer, ErrorEstimate, bool, AnswerSketch) {
        let compiled = CompiledSketchQuery::compile(self.pt.table(), query);
        let parts: Vec<AnswerSketch> = if selection.len() >= 8 && pool.workers() > 1 {
            pool.map(selection, |wp| {
                compiled.sketch_partition(self.pt.table(), self.pt.rows(wp.partition))
            })
        } else {
            selection
                .iter()
                .map(|wp| compiled.sketch_partition(self.pt.table(), self.pt.rows(wp.partition)))
                .collect()
        };
        let mut merged = compiled.empty_sketch();
        for p in &parts {
            merged.merge_from(p);
        }

        let (answer, error_estimate, exact) = match (&merged, query.func) {
            (AnswerSketch::Quantile(s), SketchFunc::Percentile(p)) => {
                let v = s.quantile(p);
                let n = s.ranked_count();
                let est = if n == 0 {
                    ErrorEstimate::no_signal(1)
                } else {
                    // Rank uncertainty of the p-th order statistic over n
                    // observed values, read back through the sketch itself,
                    // plus the sketch's own value error.
                    let se = (p * (1.0 - p) / n as f64).sqrt();
                    let (lo, hi) = (
                        s.quantile((p - 1.96 * se).clamp(0.0, 1.0)),
                        s.quantile((p + 1.96 * se).clamp(0.0, 1.0)),
                    );
                    let rank_hw = if covering {
                        0.0
                    } else {
                        (v - lo).abs().max((hi - v).abs())
                    };
                    let hw = rank_hw + v.abs() * s.alpha();
                    let rel = if v == 0.0 { f64::NAN } else { hw / v.abs() };
                    ErrorEstimate {
                        per_agg: vec![AggError {
                            ci_half_width: hw,
                            rel_err: rel,
                        }],
                        rel_err: rel,
                    }
                };
                (global_answer(v), est, false)
            }
            (AnswerSketch::Distinct(s), SketchFunc::Distinct) => {
                let v = s.estimate();
                let est = if covering && v != 0.0 {
                    let rel = 1.96 * DistinctSketch::standard_error();
                    ErrorEstimate {
                        per_agg: vec![AggError {
                            ci_half_width: rel * v,
                            rel_err: rel,
                        }],
                        rel_err: rel,
                    }
                } else {
                    // A partial merge undercounts by an amount no sketch
                    // statistic bounds — no signal, by design; the planner
                    // escalates to a covering read.
                    ErrorEstimate::no_signal(1)
                };
                (global_answer(v), est, false)
            }
            (AnswerSketch::TopK(_), SketchFunc::TopK(k)) => {
                // Weighted per-key count estimates: Σ_j w_j · count_j(key),
                // ranked by estimate (desc) with ascending key tie-break.
                let mut weighted: std::collections::HashMap<u64, f64> = Default::default();
                for (part, wp) in parts.iter().zip(selection) {
                    if let AnswerSketch::TopK(t) = part {
                        for &(key, count) in t.entries() {
                            *weighted.entry(key).or_insert(0.0) += wp.weight * count as f64;
                        }
                    }
                }
                let mut ranked: Vec<(u64, f64)> = weighted.into_iter().collect();
                ranked.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                ranked.truncate(k as usize);
                let answer = QueryAnswer {
                    groups: ranked
                        .iter()
                        .map(|&(key, est)| (GroupKey(Box::new([key])), vec![est]))
                        .collect(),
                };
                let est = if covering {
                    ErrorEstimate::exact_for(ranked.len())
                } else {
                    let funcs = vec![AggFunc::Count; ranked.len()];
                    let totals: Vec<Vec<f64>> = parts
                        .iter()
                        .map(|part| match part {
                            AnswerSketch::TopK(t) => ranked
                                .iter()
                                .map(|&(key, _)| t.count_of(key) as f64)
                                .collect(),
                            _ => unreachable!(),
                        })
                        .collect();
                    let weights: Vec<f64> = selection.iter().map(|wp| wp.weight).collect();
                    estimate_from_totals(&funcs, &totals, &weights, self.num_partitions())
                };
                (answer, est, covering)
            }
            _ => unreachable!("compiled sketch kind always matches the query func"),
        };
        (answer, error_estimate, exact, merged)
    }

    /// The single-pass whole-table answer sketch for `query` — the oracle
    /// every covering merge must equal bit-for-bit (confluence).
    pub fn exact_sketch(&self, query: &SketchQuery) -> AnswerSketch {
        let table = self.pt.table();
        CompiledSketchQuery::compile(table, query).sketch_partition(table, 0..table.num_rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_query::AggExpr;
    use ps3_stats::StatsConfig;
    use ps3_storage::table::TableBuilder;
    use ps3_storage::{ColumnMeta, ColumnType, Schema};

    #[test]
    fn method_labels() {
        assert_eq!(Method::Ps3.label(), "PS3");
        assert_eq!(Method::ALL.len(), 4);
    }

    fn tiny_system() -> Ps3System {
        let schema = Schema::new(vec![
            ColumnMeta::new("x", ColumnType::Numeric),
            ColumnMeta::new("g", ColumnType::Categorical),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..160 {
            b.push_row(&[f64::from(i)], &[["a", "b"][(i / 80) as usize % 2]]);
        }
        let pt = std::sync::Arc::new(PartitionedTable::with_equal_partitions(b.finish(), 16));
        let stats = std::sync::Arc::new(ps3_stats::TableStats::build(&pt, &StatsConfig::default()));
        let queries = vec![
            Query::new(
                vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                    ps3_storage::ColId(0),
                ))],
                None,
                vec![ps3_storage::ColId(1)],
            ),
            Query::new(vec![AggExpr::count()], None, vec![]),
        ];
        let mut cfg = Ps3Config::default().with_seed(5);
        cfg.gbdt.n_trees = 4;
        cfg.feature_selection = false;
        Ps3System::train(pt, stats, &queries, cfg)
    }

    #[test]
    fn budget_partitions_clamps() {
        let sys = tiny_system();
        assert_eq!(sys.budget_partitions(0.0), 1);
        assert_eq!(sys.budget_partitions(0.5), 8);
        assert_eq!(sys.budget_partitions(1.0), 16);
        assert_eq!(sys.budget_partitions(5.0), 16);
    }

    #[test]
    fn same_seed_restores_stochastic_behavior() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let a = sys.answer_seeded(&q, Method::Random, 0.25, 77);
        let b = sys.answer_seeded(&q, Method::Random, 0.25, 77);
        let ka: Vec<usize> = a.selection.iter().map(|w| w.partition.index()).collect();
        let kb: Vec<usize> = b.selection.iter().map(|w| w.partition.index()).collect();
        assert_eq!(ka, kb);
        // Different seeds draw different uniform samples (16 choose 4 makes
        // a collision vanishingly unlikely for these two fixed seeds).
        let c = sys.answer_seeded(&q, Method::Random, 0.25, 78);
        let kc: Vec<usize> = c.selection.iter().map(|w| w.partition.index()).collect();
        assert_ne!(ka, kc);
    }

    #[test]
    fn lss_grid_covers_training_budgets() {
        let sys = tiny_system();
        assert_eq!(sys.lss.strata_by_budget.len(), LSS_BUDGET_GRID.len());
        // Lookup picks the nearest swept budget.
        let s = sys.lss.strata_size_for(0.04);
        assert_eq!(s, sys.lss.strata_by_budget[1].1);
    }

    #[test]
    fn answer_outcome_reports_selection() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let out = sys.answer_seeded(&q, Method::Ps3, 0.25, 0);
        assert!(!out.selection.is_empty());
        assert!(out.meta.picker_ms >= 0.0);
        assert_eq!(out.meta.partitions_read as usize, out.selection.len());
        assert_eq!(out.meta.planned_frac, 0.25);
        // COUNT(*) estimate should be near 160 at a 25% budget with weights.
        let est = out.answer.global(0).unwrap();
        assert!((est - 160.0).abs() < 80.0, "count estimate {est}");
    }

    #[test]
    fn budget_sweep_computes_features_once() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        assert_eq!(sys.feature_cache_stats().misses, 0);
        for frac in LSS_BUDGET_GRID {
            sys.answer_seeded(&q, Method::Ps3, frac, 1);
        }
        let stats = sys.feature_cache_stats();
        assert_eq!(
            stats.misses, 1,
            "a 6-budget sweep must call QueryFeatures::compute exactly once"
        );
        assert_eq!(stats.hits, LSS_BUDGET_GRID.len() as u64 - 1);
    }

    #[test]
    fn full_read_is_flagged_exact_with_zero_error() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let out = sys.answer_seeded(&q, Method::Ps3, 1.0, 0);
        assert!(out.meta.exact);
        assert!(out.meta.error_estimate.is_exact());
        assert_eq!(out.answer.global(0).unwrap(), 160.0);
        // A partial read is not exact and reports a real (or NaN) estimate.
        let part = sys.answer_seeded(&q, Method::Ps3, 0.25, 0);
        assert!(!part.meta.exact);
        assert!(!part.meta.error_estimate.is_exact());
    }

    #[test]
    fn estimate_tightens_as_the_budget_grows() {
        let sys = tiny_system();
        // SUM(x) with x = row index: per-partition totals differ, so the
        // sample variance is real. (COUNT(*) on equal partitions has zero
        // cross-partition variance and a degenerate 0-width CI.)
        let q = Query::new(
            vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                ps3_storage::ColId(0),
            ))],
            None,
            vec![],
        );
        // Random sampling with HT weights: more partitions, smaller CI.
        let small = sys.answer_seeded(&q, Method::Random, 0.2, 11);
        let large = sys.answer_seeded(&q, Method::Random, 0.8, 11);
        let (s, l) = (
            small.meta.error_estimate.per_agg[0].ci_half_width,
            large.meta.error_estimate.per_agg[0].ci_half_width,
        );
        assert!(s.is_finite() && l.is_finite());
        assert!(l < s, "CI must tighten with budget: {l} !< {s}");
    }

    #[test]
    fn progressive_answer_is_bit_identical_and_updates_refine() {
        let sys = tiny_system();
        let q = Query::new(
            vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                ps3_storage::ColId(0),
            ))],
            None,
            vec![ps3_storage::ColId(1)],
        );
        let pool = ThreadPool::new(2);
        let spec = QuerySpec::from(q);
        let mut rng = spec_rng(&spec, 9);
        let one_shot = sys.run(&spec, Method::Ps3, 0.5, &mut rng, &pool, None);
        let sink = Mailbox::new();
        let mut rng = spec_rng(&spec, 9);
        let progressive = sys.run(&spec, Method::Ps3, 0.5, &mut rng, &pool, Some(&sink));
        let updates = sink.drain();
        assert_eq!(
            one_shot.answer, progressive.answer,
            "final progressive answer must be bit-identical to one-shot"
        );
        // Everything but the wall-clock picker timing is bit-identical.
        assert_eq!(
            one_shot.meta.error_estimate,
            progressive.meta.error_estimate
        );
        assert_eq!(
            one_shot.meta.partitions_read,
            progressive.meta.partitions_read
        );
        assert_eq!(one_shot.meta.planned_frac, progressive.meta.planned_frac);
        assert_eq!(one_shot.meta.exact, progressive.meta.exact);
        assert!(!updates.is_empty(), "a multi-partition read must refine");
        let mut prev_done = 0;
        for (i, u) in updates.iter().enumerate() {
            assert_eq!(u.seq as usize, i);
            assert!(u.partitions_done > prev_done, "monotone partitions_done");
            assert!(
                u.partitions_done < u.partitions_total,
                "final is not an update"
            );
            prev_done = u.partitions_done;
        }
    }

    #[test]
    fn warm_retrain_on_unchanged_table_is_bit_identical_to_prev_generation() {
        let sys = tiny_system();
        let (warm, report) =
            Ps3System::retrain_from(&sys, Arc::clone(&sys.pt), Arc::clone(&sys.stats));
        assert!(
            (1..=2).contains(&report.sweeps),
            "converged strata must settle in 1-2 sweeps, took {}",
            report.sweeps
        );
        assert_eq!(report.partitions, 16);

        // The strata re-converged to the previous generation bitwise.
        assert_eq!(
            warm.trained.strata.assignment,
            sys.trained.strata.assignment
        );
        let bits =
            |c: &[Vec<f64>]| -> Vec<u64> { c.iter().flatten().map(|x| x.to_bits()).collect() };
        assert_eq!(
            bits(&warm.trained.strata.centroids),
            bits(&sys.trained.strata.centroids)
        );
        assert!(
            Arc::ptr_eq(&warm.training, &sys.training),
            "training data is shared, not recomputed"
        );

        // Answers across methods and seeds are bit-identical: the entire
        // query-answer surface carried over unchanged.
        let queries = [
            Query::new(vec![AggExpr::count()], None, vec![]),
            Query::new(
                vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                    ps3_storage::ColId(0),
                ))],
                None,
                vec![ps3_storage::ColId(1)],
            ),
        ];
        for q in &queries {
            for method in Method::ALL {
                for seed in [0u64, 7] {
                    let a = sys.answer_seeded(q, method, 0.25, seed);
                    let b = warm.answer_seeded(q, method, 0.25, seed);
                    assert_eq!(a.answer, b.answer, "{method:?} seed {seed}");
                    assert_eq!(a.meta.error_estimate, b.meta.error_estimate);
                }
            }
        }
    }

    #[test]
    fn pick_outcome_and_answer_share_the_feature_cache() {
        let sys = tiny_system();
        let q = Query::new(vec![AggExpr::count()], None, vec![]);
        let mut rng = StdRng::seed_from_u64(3);
        let _ = sys.pick_outcome(&q, 0.25, &mut rng);
        assert_eq!(sys.feature_cache_stats().misses, 1);
        let _ = sys.answer_seeded(&q, Method::Ps3, 0.25, 3);
        let stats = sys.feature_cache_stats();
        assert_eq!(
            stats.misses, 1,
            "diagnostics and serving must share one feature computation"
        );
    }

    fn sample_sketch_queries() -> Vec<SketchQuery> {
        vec![
            SketchQuery::percentile(ps3_storage::ColId(0), 0.5),
            SketchQuery::percentile(ps3_storage::ColId(0), 0.9).filtered(
                ps3_query::Predicate::Clause(ps3_query::Clause::Cmp {
                    col: ps3_storage::ColId(0),
                    op: ps3_query::CmpOp::Lt,
                    value: 120.0,
                }),
            ),
            SketchQuery::distinct(ps3_storage::ColId(1)),
            SketchQuery::distinct(ps3_storage::ColId(0)),
            SketchQuery::top_k(ps3_storage::ColId(1), 2),
        ]
    }

    /// The acceptance criterion: the merged sketch over the picked set is
    /// bit-identical (via the codec) to a fresh merge of per-partition
    /// sketches over the same selection in any order, across every picker
    /// method × budget × seed; and a covering selection equals the
    /// single-pass whole-table oracle.
    #[test]
    fn sketch_merges_are_order_invariant_and_covering_merges_match_the_oracle() {
        let sys = tiny_system();
        let pool = ThreadPool::new(2);
        let bytes = ps3_sketch::codec::answer_sketch_to_bytes;
        for query in &sample_sketch_queries() {
            let oracle = sys.exact_sketch(query);
            let compiled = CompiledSketchQuery::compile(sys.pt.table(), query);
            for method in Method::ALL {
                for frac in [0.25, 0.5, 1.0] {
                    for seed in [1u64, 7] {
                        let spec = QuerySpec::from(query.clone());
                        let mut rng = spec_rng(&spec, seed);
                        let out = sys.answer_spec_on(&spec, method, frac, &mut rng, &pool);
                        let merged = out.sketch.as_ref().expect("sketch answers carry a sketch");

                        // Re-merge the same selection in reverse order:
                        // confluence makes the result bit-identical.
                        let mut reversed = compiled.empty_sketch();
                        for wp in out.selection.iter().rev() {
                            reversed.merge_from(
                                &compiled
                                    .sketch_partition(sys.pt.table(), sys.pt.rows(wp.partition)),
                            );
                        }
                        assert_eq!(
                            bytes(merged),
                            bytes(&reversed),
                            "{method:?} frac {frac} seed {seed}: merge order leaked into bytes"
                        );

                        if frac >= 1.0 {
                            assert_eq!(
                                bytes(merged),
                                bytes(&oracle),
                                "{method:?} seed {seed}: covering merge != single-pass oracle"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sketch_answers_are_deterministic_functions_of_the_request() {
        let sys = tiny_system();
        let pool = ThreadPool::new(2);
        for query in &sample_sketch_queries() {
            let spec = QuerySpec::from(query.clone());
            let mut rng_a = spec_rng(&spec, 42);
            let mut rng_b = spec_rng(&spec, 42);
            let a = sys.answer_spec_on(&spec, Method::Random, 0.25, &mut rng_a, &pool);
            let b = sys.answer_spec_on(&spec, Method::Random, 0.25, &mut rng_b, &pool);
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.sketch, b.sketch);
            assert_eq!(a.meta.error_estimate, b.meta.error_estimate);
        }
    }

    #[test]
    fn covering_sketch_answers_report_honest_error_classes() {
        let sys = tiny_system();
        let pool = ThreadPool::new(2);

        // PERCENTILE: finite CI at full coverage, never flagged exact
        // (the sketch itself approximates). Value: median of 0..160.
        let spec = QuerySpec::from(SketchQuery::percentile(ps3_storage::ColId(0), 0.5));
        let mut rng = spec_rng(&spec, 3);
        let out = sys.answer_spec_on(&spec, Method::Ps3, 1.0, &mut rng, &pool);
        let v = out.answer.groups[&ps3_query::GroupKey::global()][0];
        assert!((v - 79.5).abs() < 8.0, "median of 0..160 ≈ 79.5, got {v}");
        assert!(!out.meta.exact);
        assert!(out.meta.error_estimate.per_agg[0].ci_half_width.is_finite());

        // DISTINCT: covering → the standard HLL relative error; partial →
        // an honest NaN (unscalable), never a made-up number.
        let spec = QuerySpec::from(SketchQuery::distinct(ps3_storage::ColId(1)));
        let mut rng = spec_rng(&spec, 3);
        let full = sys.answer_spec_on(&spec, Method::Ps3, 1.0, &mut rng, &pool);
        let d = full.answer.groups[&ps3_query::GroupKey::global()][0];
        assert!((d - 2.0).abs() < 0.5, "two categories, got {d}");
        let rel = full.meta.error_estimate.rel_err;
        assert!((rel - 1.96 * DistinctSketch::standard_error()).abs() < 1e-12);
        let mut rng = spec_rng(&spec, 3);
        let part = sys.answer_spec_on(&spec, Method::Random, 0.25, &mut rng, &pool);
        assert!(
            part.meta.error_estimate.rel_err.is_nan(),
            "partial distinct coverage must report no signal"
        );

        // TOP_K: counts are exact in the sketch, so a covering read is an
        // exact answer with the true per-key counts.
        let spec = QuerySpec::from(SketchQuery::top_k(ps3_storage::ColId(1), 2));
        let mut rng = spec_rng(&spec, 3);
        let out = sys.answer_spec_on(&spec, Method::Ps3, 1.0, &mut rng, &pool);
        assert!(out.meta.exact);
        assert!(out.meta.error_estimate.is_exact());
        // 160 rows split 80/80 over dictionary codes 0 and 1.
        for code in [0u64, 1] {
            let key = ps3_query::GroupKey(Box::new([code]));
            assert_eq!(out.answer.groups[&key], vec![80.0], "code {code}");
        }
    }

    #[test]
    fn scalar_specs_answer_bit_identically_to_the_plain_query_path() {
        let sys = tiny_system();
        let pool = ThreadPool::new(2);
        let q = Query::new(
            vec![AggExpr::sum(ps3_query::ScalarExpr::col(
                ps3_storage::ColId(0),
            ))],
            None,
            vec![ps3_storage::ColId(1)],
        );
        let spec = QuerySpec::from(q.clone());
        for method in Method::ALL {
            for seed in [0u64, 9] {
                // spec_rng must collapse to query_rng for scalar specs —
                // the cached-answer key space did not move.
                let mut rng_q = query_rng(&q, seed);
                let mut rng_s = spec_rng(&spec, seed);
                let a = sys.answer(&q, method, 0.25, &mut rng_q);
                let b = sys.answer_spec_on(&spec, method, 0.25, &mut rng_s, &pool);
                assert_eq!(a.answer, b.answer, "{method:?} seed {seed}");
                assert_eq!(a.meta.error_estimate, b.meta.error_estimate);
                assert!(b.sketch.is_none(), "scalar answers carry no sketch");
            }
        }
    }
}
