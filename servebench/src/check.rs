//! Answer checking and ground truth.
//!
//! Every checked wire answer is compared bit for bit with the in-process
//! reference: `Ps3System::answer_spec_on` (which is `answer_on` for scalar
//! queries) under `spec_rng` of the request's seed, at the fraction the
//! router's planner would choose. The comparison is on encoded response
//! bytes, so it covers the answer rows, the partitions read, the planned
//! fraction, the exactness flag, the error estimate and any answer sketch;
//! only the picker's wall-clock time is taken from the reply.

use std::collections::HashMap;
use std::sync::Arc;

use ps3_core::planner::plan_error_target;
use ps3_core::{spec_rng, AnswerOutcome, Budget, Method, Ps3System, QueryRequest};
use ps3_net::proto::{decode_body, encode_frame, Frame, ResponseFrame};
use ps3_query::metrics::ErrorMetrics;
use ps3_query::{QueryAnswer, QuerySpec};
use ps3_runtime::ThreadPool;

/// Reference answers, memoised per `(query, method, fraction, seed)`.
pub struct Checker {
    system: Arc<Ps3System>,
    pool: Arc<ThreadPool>,
    outcomes: HashMap<(u64, &'static str, u64, u64), Arc<AnswerOutcome>>,
    planned: HashMap<(u64, u64, u64), f64>,
}

impl Checker {
    /// Check against `system`: the system the server was started with, so
    /// answers served after a retrain on the unchanged table are checked
    /// against the pre-retrain generation.
    pub fn new(system: Arc<Ps3System>) -> Self {
        Self {
            system,
            pool: ThreadPool::global(),
            outcomes: HashMap::new(),
            planned: HashMap::new(),
        }
    }

    fn at(&mut self, req: &QueryRequest, frac: f64) -> Arc<AnswerOutcome> {
        let key = (
            req.query.fingerprint(),
            req.method.label(),
            frac.to_bits(),
            req.seed,
        );
        if let Some(out) = self.outcomes.get(&key) {
            return Arc::clone(out);
        }
        let mut rng = spec_rng(&req.query, req.seed);
        let out = Arc::new(
            self.system
                .answer_spec_on(&req.query, req.method, frac, &mut rng, &self.pool),
        );
        self.outcomes.insert(key, Arc::clone(&out));
        out
    }

    /// The fraction `req` executes at: explicit fractions as given, error
    /// targets planned over the same probe sequence the router runs.
    fn fraction(&mut self, req: &QueryRequest) -> f64 {
        match req.budget {
            Budget::Fraction(frac) => frac,
            Budget::ErrorTarget { rel_err } => {
                let key = (req.query.fingerprint(), req.seed, rel_err.to_bits());
                if let Some(&frac) = self.planned.get(&key) {
                    return frac;
                }
                let (frac, _, _) =
                    plan_error_target(rel_err, |f| self.at(req, f).meta.error_estimate.rel_err);
                self.planned.insert(key, frac);
                frac
            }
            Budget::LatencyTarget { .. } => {
                panic!(
                    "latency-targeted requests depend on measured cost; the benchmark sends none"
                )
            }
        }
    }

    /// The reference outcome of `req`.
    pub fn reference(&mut self, req: &QueryRequest) -> Arc<AnswerOutcome> {
        let frac = self.fraction(req);
        self.at(req, frac)
    }

    /// Whether the reply `body` to `req` is bit-identical to the reference.
    pub fn matches(&mut self, req: &QueryRequest, body: &[u8]) -> bool {
        let Ok(Frame::Response(got)) = decode_body(body) else {
            return false;
        };
        let reference = self.reference(req);
        let mut want = ResponseFrame::from_outcome(got.request_id, &reference);
        want.picker_ms = got.picker_ms;
        match encode_frame(&Frame::Response(want)) {
            Ok(bytes) => bytes[4..] == *body,
            Err(_) => false,
        }
    }
}

/// The exact answer to `spec`: a full scan for scalar queries, and a
/// covering read (every partition at weight 1, which merges to the
/// whole-table sketch) for sketch queries.
pub fn ground_truth(system: &Ps3System, spec: &QuerySpec, pool: &ThreadPool) -> QueryAnswer {
    match spec {
        QuerySpec::Scalar(q) => system.exact_answer(q),
        QuerySpec::Sketch(_) => {
            let mut rng = spec_rng(spec, 0);
            system
                .answer_spec_on(spec, Method::Random, 1.0, &mut rng, pool)
                .answer
        }
    }
}

/// Mean relative error of a served reply against the truth.
pub fn rel_err(truth: &QueryAnswer, body: &[u8]) -> Option<(f64, u32)> {
    match decode_body(body) {
        Ok(Frame::Response(r)) => Some((
            ErrorMetrics::compute(truth, &r.to_answer()).avg_rel_err,
            r.partitions_read,
        )),
        _ => None,
    }
}
