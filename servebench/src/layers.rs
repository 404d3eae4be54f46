//! The traced decomposition: one request at a time, the benchmark calls
//! each layer's public functions itself and records a span around each
//! call.
//!
//! Per request it sends the wire request to the served router (A), asks a
//! second router (B) over a bit-identical thawed copy of the system for
//! the same key with `Router::answer_now`, replays the codec steps the
//! server runs, and re-runs the answer pipeline stage by stage on a third
//! thawed copy (C): features → pick → execute → estimate (or sketch).
//! B and C see exactly the request sequence A sees, so their caches hold
//! the same keys and a cold call on A is cold on B and C too. C's
//! pipeline mirrors the router's answer cache and budget planner, so its
//! stage spans are the executions the router ran for the request.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use ps3_core::estimator::estimate_from_totals;
use ps3_core::planner::plan_error_target;
use ps3_core::{
    spec_rng, AnswerOutcome, Budget, Method, Ps3System, QueryRequest, Router, TableId, Tenant,
};
use ps3_net::proto::{decode_body, encode_frame, Frame, ResponseFrame};
use ps3_query::exec::execute_partitions_compiled_totals_on;
use ps3_query::{AggFunc, CompiledSketchQuery, QuerySpec, WeightedPart};
use ps3_runtime::ThreadPool;
use ps3_stats::QueryFeatures;

use crate::trace::Tracer;
use crate::wire::{encode_request, read_body};
use crate::workload::sketch_proxy;

/// Per-request counts gathered beside the spans.
#[derive(Default, Clone)]
pub struct Counts {
    pub executions: u32,
    pub feature_lookups: u32,
    pub feature_misses: u32,
    pub partitions: u64,
    pub outliers: u64,
    pub clustering_ms: f64,
    pub rows: u64,
    /// The final planned fraction the pipeline executed at.
    pub frac: f64,
}

/// Stage-by-stage replay of the router's answer path on its own system.
pub struct Mirror {
    system: Arc<Ps3System>,
    pool: Arc<ThreadPool>,
    /// The router's answer cache, as far as the planner sees it: the
    /// relative error of every `(query, fraction, seed)` already executed.
    memo: HashMap<(u64, u64, u64), f64>,
}

impl Mirror {
    pub fn new(system: Arc<Ps3System>) -> Self {
        Self {
            system,
            pool: ThreadPool::global(),
            memo: HashMap::new(),
        }
    }

    /// Swap in a retrained system: the router invalidates its cached
    /// answers and the new system starts with an empty feature cache.
    pub fn replace(&mut self, system: Arc<Ps3System>) {
        self.system = system;
        self.memo.clear();
    }

    pub fn system(&self) -> &Arc<Ps3System> {
        &self.system
    }

    /// Replay one request under a `pipeline` span.
    pub fn run(&mut self, req: &QueryRequest, tracer: &mut Tracer) -> Counts {
        let mut counts = Counts::default();
        tracer.span("pipeline", |t| {
            counts.frac = match req.budget {
                Budget::Fraction(frac) => {
                    self.execute(req, frac, t, &mut counts);
                    frac
                }
                Budget::ErrorTarget { rel_err } => {
                    let (frac, _, _) =
                        plan_error_target(rel_err, |f| self.execute(req, f, t, &mut counts));
                    self.execute(req, frac, t, &mut counts);
                    frac
                }
                Budget::LatencyTarget { .. } => {
                    unreachable!("the benchmark sends no latency targets")
                }
            };
        });
        counts
    }

    /// One execution at `frac`, or a memo hit; returns the answer's
    /// relative error estimate (what the planner probes for).
    fn execute(&mut self, req: &QueryRequest, frac: f64, t: &mut Tracer, c: &mut Counts) -> f64 {
        let key = (req.query.fingerprint(), frac.to_bits(), req.seed);
        if let Some(&rel) = self.memo.get(&key) {
            return rel;
        }
        c.executions += 1;
        let system = Arc::clone(&self.system);
        let mut rng = spec_rng(&req.query, req.seed);
        let proxy;
        let scalar = match &req.query {
            QuerySpec::Scalar(q) => q,
            QuerySpec::Sketch(s) => {
                proxy = sketch_proxy(s);
                &proxy
            }
        };
        let misses = system.feature_cache_stats().misses;
        let artifacts = t.span("features", |_| system.artifacts_for(scalar));
        c.feature_lookups += 1;
        c.feature_misses += (system.feature_cache_stats().misses - misses) as u32;
        let pick = t.span("pick", |_| system.pick_outcome(scalar, frac, &mut rng));
        c.partitions += pick.selection.len() as u64;
        c.outliers += pick.num_outliers as u64;
        c.clustering_ms += pick.clustering_ms;
        let rel = match &req.query {
            QuerySpec::Scalar(q) => {
                let (_answer, totals) = t.span("exec", |_| {
                    execute_partitions_compiled_totals_on(
                        &system.pt,
                        &artifacts.compiled,
                        &pick.selection,
                        &self.pool,
                    )
                });
                c.rows += pick
                    .selection
                    .iter()
                    .map(|wp| system.pt.rows(wp.partition).len() as u64)
                    .sum::<u64>();
                let funcs: Vec<AggFunc> = q.aggregates.iter().map(|a| a.func).collect();
                let weights: Vec<f64> = pick.selection.iter().map(|wp| wp.weight).collect();
                let estimate = t.span("estimate", |_| {
                    estimate_from_totals(&funcs, &totals, &weights, system.num_partitions())
                });
                if is_exact(&system, &artifacts.features, frac, &pick.selection) {
                    0.0
                } else {
                    estimate.rel_err
                }
            }
            QuerySpec::Sketch(s) => {
                let table = system.pt.table();
                t.span("sketch", |_| {
                    let compiled = CompiledSketchQuery::compile(table, s);
                    let mut merged = compiled.empty_sketch();
                    for wp in &pick.selection {
                        merged.merge_from(
                            &compiled.sketch_partition(table, system.pt.rows(wp.partition)),
                        );
                    }
                    merged
                });
                // A sketch answer's error estimate is derived inside
                // `answer_sketch_on`; replay it outside the stage spans.
                let mut rng = spec_rng(&req.query, req.seed);
                t.span("sketch.replay", |_| {
                    system
                        .answer_spec_on(&req.query, Method::Ps3, frac, &mut rng, &self.pool)
                        .meta
                        .error_estimate
                        .rel_err
                })
            }
        };
        self.memo.insert(key, rel);
        rel
    }
}

/// The router's exactness rule: a full read, or every partition that can
/// hold a qualifying row selected at weight exactly 1.
fn is_exact(system: &Ps3System, features: &QueryFeatures, frac: f64, sel: &[WeightedPart]) -> bool {
    if frac >= 1.0 {
        return true;
    }
    let weight_of: HashMap<usize, f64> = sel
        .iter()
        .map(|wp| (wp.partition.index(), wp.weight))
        .collect();
    (0..system.num_partitions())
        .filter(|&p| features.selectivity_upper(p) > 0.0)
        .all(|p| weight_of.get(&p) == Some(&1.0))
}

/// The traced decomposition's handles: the served server's address, the
/// shadow router B and its tenant, and the mirror C.
pub struct Decomposer {
    pub stream: TcpStream,
    pub router_b: Arc<Router>,
    pub table_b: TableId,
    pub tenant_b: Tenant,
    pub mirror: Mirror,
    next_id: u64,
}

/// What one decomposed request produced.
pub struct Decomposed {
    pub counts: Counts,
    pub outcome: Arc<AnswerOutcome>,
    pub wire_body: Vec<u8>,
    pub req_bytes: usize,
}

impl Decomposer {
    pub fn new(stream: TcpStream, router_b: Arc<Router>, table_b: TableId, mirror: Mirror) -> Self {
        let tenant_b = router_b.tenant("decompose", None);
        Self {
            stream,
            router_b,
            table_b,
            tenant_b,
            mirror,
            next_id: 1,
        }
    }

    /// Run one request through every layer under spans of request id `id`.
    pub fn request(&mut self, req: &QueryRequest, tracer: &mut Tracer) -> Decomposed {
        let id = self.next_id;
        self.next_id += 1;
        tracer.set_request(id);
        let root = tracer.enter("request");
        let bytes = tracer.span("net.req_encode", |_| encode_request(id, req));
        let wire_body = tracer.span("net.wire", |_| {
            self.stream
                .write_all(&bytes)
                .expect("send to served router");
            read_body(&mut self.stream).expect("reply from served router")
        });
        tracer.span("net.resp_decode", |_| {
            decode_body(&wire_body).expect("decodable reply")
        });
        tracer.span("net.req_decode", |_| {
            decode_body(&bytes[4..]).expect("decodable request")
        });
        let outcome = tracer.span("router.answer", |_| {
            self.router_b.answer_now(self.table_b, req)
        });
        tracer.span("net.resp_encode", |_| {
            encode_frame(&Frame::Response(ResponseFrame::from_outcome(id, &outcome)))
                .expect("encodable reply")
        });
        tracer.span("router.answer_cached", |_| {
            self.router_b.answer_now(self.table_b, req)
        });
        tracer.span("router.tenant_cached", |_| {
            self.tenant_b.answer(req.clone()).expect("tenant answer")
        });
        let counts = self.mirror.run(req, tracer);
        tracer.exit(root);
        Decomposed {
            counts,
            outcome,
            wire_body,
            req_bytes: bytes.len(),
        }
    }
}
