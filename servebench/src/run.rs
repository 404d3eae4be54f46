//! The two kinds of run: the untraced end-to-end run (`--trace 0`) and the
//! traced per-layer run (`--trace 1`).
//!
//! End-to-end run, after `SETUPS` timed set-ups:
//!
//! 1. warm-up: bring the caches to the workload's steady state (untimed);
//! 2. open loop: a seeded Poisson schedule at the workload's fixed rate on
//!    one connection; latency counts from each request's scheduled send
//!    time. `dashboard-hot`'s writer retrains every fixed number of sends;
//! 3. closed loop: `nproc` pipelined connections saturate the server;
//! 4. retrain (workloads without a writer): a few
//!    `Router::retrain_incremental` calls under one closed-loop connection;
//! 5. untimed: answer checks, ground truth, relative error, read reduction.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ps3_core::{Budget, QueryRequest, Router};
use ps3_net::proto::{decode_body, Frame};
use ps3_query::{QueryAnswer, QuerySpec};
use ps3_runtime::ThreadPool;

use crate::check::{ground_truth, rel_err, Checker};
use crate::fixture::{setup, Fixture};
use crate::layers::{Decomposer, Mirror};
use crate::quality::read_reduction;
use crate::report::{git_rev, peak_rss_mb, source_digest, Json, Metric, PhaseCount, RunResult};
use crate::schedule::{poisson_offsets, stream_rng};
use crate::stats::{
    highest_supported_quantile, mean, median, quantile, rate_per_slice, ratio, samples_beyond,
};
use crate::trace::{self_times, Tracer};
use crate::wire::{
    closed_loop, encode_request, open_loop, read_body, reply_of, ClosedResult, OpenSample,
};
use crate::workload::{RequestGen, Workload};
use crate::Args;

/// Set-ups per end-to-end run; `setup_s` is their lower median (with two,
/// the faster one: set-up noise only ever adds time).
const SETUPS: usize = 2;
/// Share of `--seconds` the end-to-end open loop is scheduled to take
/// (the closed loop takes the rest).
const OPEN_SHARE: f64 = 0.7;
/// Requests each closed-loop connection keeps in flight.
const CLOSED_DEPTH: usize = 4;
/// One answer in this many is checked (seeded draw per phase and index).
const CHECK_ONE_IN: u64 = 8;
/// Retrains in the retrain phase of workloads without a writer.
const PHASE_RETRAINS: usize = 7;
/// Span request ids of the traced open loop start here, clear of the
/// decomposition's ids.
const OPEN_TRACED_IDS: u64 = 1 << 32;
/// A request that got no answer counts at this latency: past any limit.
const FAILED_LATENCY_MS: f64 = 60_000.0;
/// The open-loop generator is flagged as behind its schedule when its
/// median lateness or its worst lateness exceed these.
const BEHIND_MEDIAN_MS: f64 = 1.0;
const BEHIND_MAX_MS: f64 = 100.0;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seeded one-in-`CHECK_ONE_IN` draw of the answers to check.
fn sampled(seed: u64, phase: &str, i: u64) -> bool {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ phase.len() as u64;
    for b in phase.bytes() {
        x = (x ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    // splitmix64 finaliser
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x.is_multiple_of(CHECK_ONE_IN)
}

fn retrain(fx: &Fixture) -> f64 {
    let started = Instant::now();
    fx.router
        .retrain_incremental(fx.table, Arc::clone(&fx.ds.pt), Arc::clone(&fx.ds.stats));
    started.elapsed().as_secs_f64() * 1e3
}

/// Send `requests` one at a time over a fresh connection.
fn sequential(fx: &Fixture, name: &'static str, requests: &[QueryRequest]) -> PhaseCount {
    let mut count = PhaseCount {
        name,
        sent: 0,
        succeeded: 0,
        failed: 0,
    };
    let Ok(mut stream) = TcpStream::connect(fx.addr()) else {
        count.failed = requests.len() as u64;
        count.sent = count.failed;
        return count;
    };
    let _ = stream.set_nodelay(true);
    for (i, req) in requests.iter().enumerate() {
        count.sent += 1;
        let ok = stream.write_all(&encode_request(i as u64 + 1, req)).is_ok()
            && read_body(&mut stream)
                .ok()
                .is_some_and(|b| matches!(reply_of(&b), Ok((_, true))));
        if ok {
            count.succeeded += 1;
        } else {
            count.failed += 1;
        }
    }
    count
}

/// One open-loop phase and what its writer did.
struct OpenPhase {
    requests: Vec<QueryRequest>,
    samples: Vec<OpenSample>,
    retrain_ms: Vec<f64>,
}

impl OpenPhase {
    fn count(&self, name: &'static str) -> PhaseCount {
        let succeeded = self
            .samples
            .iter()
            .filter(|s| s.latency_ms.is_some())
            .count() as u64;
        PhaseCount {
            name,
            sent: self.samples.len() as u64,
            succeeded,
            failed: self.samples.len() as u64 - succeeded,
        }
    }

    fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.latency_ms.unwrap_or(FAILED_LATENCY_MS))
            .collect()
    }

    fn lateness(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.lateness_ms).collect()
    }
}

fn open_phase(
    fx: &Fixture,
    w: Workload,
    seed: u64,
    stream: &str,
    rate: f64,
    n: usize,
    traced: bool,
) -> OpenPhase {
    let mut gen = RequestGen::new(w, &fx.ds, seed, stream);
    let requests: Vec<QueryRequest> = (0..n).map(|_| gen.next_request()).collect();
    let offsets = poisson_offsets(
        &mut stream_rng(seed, &format!("{stream}-arrivals")),
        rate,
        n,
    );
    let (tx, rx) = sync_channel::<usize>(16);
    let notify = w.retrain_every().map(|every| (every, tx));
    let mut retrain_ms = Vec::new();
    let samples = std::thread::scope(|s| {
        let load = s.spawn(|| open_loop(fx.addr(), &offsets, &requests, traced, notify));
        // The writer: one retrain per cue from the sender.
        for _sent in rx {
            retrain_ms.push(retrain(fx));
        }
        load.join().expect("open-loop thread")
    });
    let samples = samples.unwrap_or_else(|e| {
        eprintln!("servebench: open loop failed to connect: {e}");
        vec![OpenSample::default(); n]
    });
    OpenPhase {
        requests,
        samples,
        retrain_ms,
    }
}

/// A closed-loop phase over `conns` connections; `during` runs on the
/// calling thread while the load is on, and the load stops when it
/// returns. Returns the result and the throughput of each whole second of
/// the load window.
fn closed_phase(
    fx: &Fixture,
    w: Workload,
    seed: u64,
    stream: &'static str,
    conns: usize,
    depth: usize,
    during: impl FnOnce(),
) -> (ClosedResult, Vec<f64>) {
    let mut gen = RequestGen::new(w, &fx.ds, seed, stream);
    let mut draw = 0u64;
    let next = Mutex::new(move || {
        draw += 1;
        (draw - 1, gen.next_request())
    });
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let started = Instant::now();
        let load = s.spawn(|| {
            closed_loop(fx.addr(), conns, depth, &stop, &next, |d| {
                sampled(seed, stream, d)
            })
        });
        during();
        stop.store(true, Ordering::SeqCst);
        let window = started.elapsed().as_secs_f64();
        let result = load
            .join()
            .expect("closed-loop thread")
            .unwrap_or_else(|e| {
                eprintln!("servebench: closed loop failed to connect: {e}");
                ClosedResult::default()
            });
        let offsets: Vec<f64> = result
            .completed_at
            .iter()
            .map(|t| t.saturating_duration_since(started).as_secs_f64())
            .collect();
        (result, rate_per_slice(&offsets, window, 1.0))
    })
}

fn closed_count(name: &'static str, r: &ClosedResult) -> PhaseCount {
    PhaseCount {
        name,
        sent: r.sent,
        succeeded: r.answered,
        failed: r.failed,
    }
}

/// Answer checks: `(checked, mismatches)`.
#[derive(Default)]
struct Checks {
    checked: u64,
    mismatches: u64,
}

impl Checks {
    fn check(&mut self, checker: &mut Checker, req: &QueryRequest, body: &[u8]) {
        self.checked += 1;
        if !checker.matches(req, body) {
            self.mismatches += 1;
        }
    }

    fn open(&mut self, checker: &mut Checker, seed: u64, phase: &str, p: &OpenPhase) {
        for (i, (req, s)) in p.requests.iter().zip(&p.samples).enumerate() {
            if let Some(body) = &s.body {
                if sampled(seed, phase, i as u64) {
                    self.check(checker, req, body);
                }
            }
        }
    }

    fn closed(&mut self, checker: &mut Checker, r: &ClosedResult) {
        for (req, body) in &r.checked {
            self.check(checker, req, body);
        }
    }
}

/// Served answers' relative error against exact ground truth (computed
/// here, untimed), and partitions read, over an open phase's answers.
fn answer_quality(fx: &Fixture, p: &OpenPhase) -> (f64, f64) {
    let pool = ThreadPool::global();
    let mut truth: HashMap<u64, QueryAnswer> = HashMap::new();
    let (mut errs, mut parts) = (Vec::new(), Vec::new());
    for (req, s) in p.requests.iter().zip(&p.samples) {
        let Some(body) = &s.body else { continue };
        let t = truth
            .entry(req.query.fingerprint())
            .or_insert_with(|| ground_truth(&fx.system, &req.query, &pool));
        if let Some((e, read)) = rel_err(t, body) {
            errs.push(e);
            parts.push(f64::from(read));
        }
    }
    (mean(&errs), mean(&parts))
}

fn lateness_json(p: &OpenPhase) -> (Json, bool) {
    let late = p.lateness();
    let (med, max) = (median(&late), late.iter().copied().fold(0.0, f64::max));
    let behind = med > BEHIND_MEDIAN_MS || max > BEHIND_MAX_MS;
    (
        Json::obj(vec![
            ("median_ms", Json::Num(med)),
            ("max_ms", Json::Num(max)),
            ("behind_schedule", Json::Bool(behind)),
        ]),
        behind,
    )
}

fn base_provenance(args: &Args) -> Vec<(&'static str, Json)> {
    let root = Path::new(".");
    vec![
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc() as u64)),
        ("git_rev", git_rev(root).map_or(Json::Null, Json::Str)),
        ("source_digest", Json::Str(source_digest(root))),
        (
            "dataset",
            Json::Str(format!(
                "{:?} at ScaleProfile::Default, seed {}",
                args.workload.dataset(),
                crate::fixture::DATA_SEED
            )),
        ),
    ]
}

fn phases_json(phases: &[PhaseCount]) -> Json {
    Json::Obj(
        phases
            .iter()
            .map(|p| (p.name.to_string(), p.json()))
            .collect(),
    )
}

/// The untraced end-to-end run.
pub fn run_e2e(args: &Args, scratch: &Path) -> RunResult {
    let w = args.workload;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut fixture = None;
    for i in 0..SETUPS {
        let (fx, secs) = setup(w, scratch, None);
        setups.push(secs);
        if i + 1 < SETUPS {
            fx.shutdown();
        } else {
            fixture = Some(fx);
        }
    }
    let fx = fixture.expect("at least one set-up");
    let mut phases = Vec::new();

    let warm = RequestGen::new(w, &fx.ds, args.seed, "warmup").warmup();
    phases.push(sequential(&fx, "warmup", &warm));

    let n_open = (w.open_rate() * OPEN_SHARE * args.seconds).round().max(1.0) as usize;
    let open = open_phase(&fx, w, args.seed, "open", w.open_rate(), n_open, false);
    phases.push(open.count("open"));
    let mut retrain_ms = open.retrain_ms.clone();

    let closed_secs = args.seconds * (1.0 - OPEN_SHARE);
    let (closed, per_second) =
        closed_phase(&fx, w, args.seed, "closed", nproc(), CLOSED_DEPTH, || {
            std::thread::sleep(Duration::from_secs_f64(closed_secs))
        });
    phases.push(closed_count("closed", &closed));

    let mut retrain_phase = None;
    if w.retrain_every().is_none() {
        let (r, _) = closed_phase(&fx, w, args.seed, "retrain", 1, 1, || {
            for _ in 0..PHASE_RETRAINS {
                retrain_ms.push(retrain(&fx));
            }
        });
        phases.push(closed_count("retrain", &r));
        retrain_phase = Some(r);
    }

    // Untimed from here on.
    let post = Instant::now();
    let mut checker = Checker::new(Arc::clone(&fx.system));
    let mut checks = Checks::default();
    checks.open(&mut checker, args.seed, "open", &open);
    checks.closed(&mut checker, &closed);
    if let Some(r) = &retrain_phase {
        checks.closed(&mut checker, r);
    }
    let (rel, parts) = answer_quality(&fx, &open);
    let rr = read_reduction(&fx.system, &fx.ds);
    let router_stats = fx.router.stats();
    let server_stats = fx.server.stats();
    fx.shutdown();
    let post_s = post.elapsed().as_secs_f64();

    let attempted: u64 = phases.iter().map(|p| p.sent).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum::<u64>() + checks.mismatches;
    let lat = open.latencies();
    let (late, behind) = lateness_json(&open);
    // Latency under saturation (the closed loop); 0 only if it answered
    // nothing, which the failure count already reports.
    let sat = |q| match closed.latency_ms.is_empty() {
        true => 0.0,
        false => quantile(&closed.latency_ms, q),
    };
    let mut provenance = base_provenance(args);
    provenance.extend([
        ("phases", phases_json(&phases)),
        (
            "open_loop",
            Json::obj(vec![
                ("rate_per_s", Json::Num(w.open_rate())),
                ("samples", Json::Int(lat.len() as u64)),
                (
                    "samples_beyond_p99",
                    Json::Int(samples_beyond(lat.len(), 0.99) as u64),
                ),
                ("p50_ms", Json::Num(quantile(&lat, 0.5))),
                ("p99_ms", Json::Num(quantile(&lat, 0.99))),
                (
                    "deciles_ms",
                    Json::Str(format!(
                        "{:.3?}",
                        (1..10)
                            .map(|d| quantile(&lat, d as f64 / 10.0))
                            .collect::<Vec<_>>()
                    )),
                ),
                (
                    "highest_supported_quantile",
                    highest_supported_quantile(lat.len(), 10).map_or(Json::Null, Json::Num),
                ),
                ("lateness", late),
            ]),
        ),
        (
            "trusted",
            Json::Bool(!behind && samples_beyond(lat.len(), 0.99) >= 10),
        ),
        (
            "closed_loop",
            Json::obj(vec![
                ("connections", Json::Int(nproc() as u64)),
                ("depth", Json::Int(CLOSED_DEPTH as u64)),
                ("per_second", Json::Str(format!("{per_second:.0?}"))),
                ("samples", Json::Int(closed.latency_ms.len() as u64)),
                ("p99_ms", Json::Num(sat(0.99))),
            ]),
        ),
        (
            "failed_ratio",
            Json::Num(ratio(failed as f64, attempted as f64)),
        ),
        (
            "checks",
            Json::obj(vec![
                ("checked", Json::Int(checks.checked)),
                ("mismatches", Json::Int(checks.mismatches)),
            ]),
        ),
        (
            "read_reduction",
            Json::obj(vec![
                ("ps3_err_at_5pct", Json::Num(rr.ps3_err)),
                ("random_budget", Json::Num(rr.random_budget)),
            ]),
        ),
        ("setups_s", Json::Str(format!("{setups:?}"))),
        ("post_run_s", Json::Num(post_s)),
        ("retrains_ms", Json::Str(format!("{retrain_ms:?}"))),
        (
            "router",
            Json::obj(vec![
                ("answer_hits", Json::Int(router_stats.answers.hits)),
                ("answer_misses", Json::Int(router_stats.answers.misses)),
                ("executions", Json::Int(router_stats.executions)),
                ("retrains", Json::Int(router_stats.retrains)),
                ("snapshots", Json::Int(router_stats.snapshots)),
                ("server_errors", Json::Int(server_stats.errors)),
            ]),
        ),
    ]);
    if behind {
        eprintln!(
            "servebench: the open-loop generator fell behind its schedule; this run is not trusted"
        );
    }
    let metrics = vec![
        Metric {
            name: "sat_p50_ms",
            value: sat(0.5),
            unit: "ms",
        },
        Metric {
            name: "throughput_rps",
            value: median(&per_second),
            unit: "1/s",
        },
        Metric {
            name: "success_ratio",
            value: 1.0 - ratio(failed as f64, attempted as f64),
            unit: "ratio",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
        Metric {
            name: "rss_mb",
            value: peak_rss_mb(),
            unit: "MiB",
        },
        Metric {
            name: "partitions_read",
            value: parts,
            unit: "count",
        },
        Metric {
            name: "rel_err",
            value: rel,
            unit: "ratio",
        },
        Metric {
            name: "read_reduction_x",
            value: rr.reduction_x,
            unit: "x",
        },
        Metric {
            name: "retrain_ms",
            value: median(&retrain_ms),
            unit: "ms",
        },
    ];
    RunResult {
        correct: checks.mismatches == 0,
        attempted,
        failed,
        metrics,
        provenance,
    }
}

/// Median over requests of `f`, skipping requests where it is `None`.
fn per_request(values: impl Iterator<Item = Option<f64>>) -> f64 {
    let v: Vec<f64> = values.flatten().collect();
    median(&v)
}

/// The traced per-layer run.
pub fn run_traced(args: &Args, scratch: &Path) -> RunResult {
    let w = args.workload;
    let mut tracer = Tracer::new();
    let (fx, _) = setup(w, scratch, Some(&mut tracer));
    let setup_span = |name: &str| {
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum::<f64>()
    };
    let setup_metrics = [
        setup_span("setup.dataset"),
        setup_span("setup.training_data"),
        setup_span("setup.models"),
        setup_span("setup.lss"),
    ];
    let mut phases = Vec::new();
    let warm = RequestGen::new(w, &fx.ds, args.seed, "warmup").warmup();
    phases.push(sequential(&fx, "warmup", &warm));

    // Shadow copies for the decomposition, bit-identical to the served
    // system and warmed with the same requests.
    let frozen = scratch.join("shadow.ps3");
    ps3_core::freeze(&fx.system, &frozen).expect("freeze shadow copy");
    let thaw = || Arc::new(ps3_core::thaw(&frozen).expect("thaw shadow copy"));
    let router_b = Router::builder().table(w.table(), thaw()).build();
    let table_b = router_b.table_id(w.table()).expect("shadow table");
    let mut mirror = Mirror::new(thaw());
    {
        let mut scratch_tracer = Tracer::new();
        for req in &warm {
            router_b.answer_now(table_b, req);
            mirror.run(req, &mut scratch_tracer);
        }
    }

    let before = (
        fx.router.stats(),
        fx.server.stats(),
        ThreadPool::global().tasks_injected(),
    );
    let n = (w.open_rate() * 0.3 * args.seconds).round().max(1.0) as usize;
    let untraced = open_phase(&fx, w, args.seed, "open", w.open_rate(), n, false);
    phases.push(untraced.count("open"));
    let traced = open_phase(&fx, w, args.seed, "open-traced", w.open_rate(), n, true);
    phases.push(traced.count("open-traced"));
    // The traced loop's client spans, under request ids of their own.
    for (i, s) in traced.samples.iter().enumerate() {
        let request = OPEN_TRACED_IDS + i as u64;
        for (name, interval) in [
            ("client.req_encode", s.encode),
            ("client.resp_decode", s.decode),
        ] {
            if let Some((start, end)) = interval {
                tracer.record(name, request, start, end);
            }
        }
    }
    let after = (fx.router.stats(), ThreadPool::global().tasks_injected());
    let open_requests = (untraced.samples.len() + traced.samples.len()) as f64;

    // Decomposition: sequential, until its share of the time is used.
    let stream = TcpStream::connect(fx.addr()).expect("connect decomposition client");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut dec = Decomposer::new(stream, Arc::clone(&router_b), table_b, mirror);
    let mut gen = RequestGen::new(w, &fx.ds, args.seed, "decompose");
    let deadline = Instant::now() + Duration::from_secs_f64(0.4 * args.seconds);
    let first_span = tracer.spans().len();
    let pool = ThreadPool::global();
    let mut truth: HashMap<u64, QueryAnswer> = HashMap::new();
    let mut checker = Checker::new(Arc::clone(&fx.system));
    let mut checks = Checks::default();
    let (mut rows, mut divergences) = (Vec::new(), 0u64);
    let mut decomposed = PhaseCount {
        name: "decompose",
        sent: 0,
        succeeded: 0,
        failed: 0,
    };
    let mut retrain_spans = 0;
    while Instant::now() < deadline || decomposed.sent < 20 {
        if let Some(every) = w.retrain_every() {
            if decomposed.sent > 0 && (decomposed.sent as usize).is_multiple_of(every) {
                tracer.span("retrain", |t| {
                    t.span("retrain.served", |_| retrain(&fx));
                    t.span("retrain.shadow", |_| {
                        router_b.retrain_incremental(
                            table_b,
                            Arc::clone(&fx.ds.pt),
                            Arc::clone(&fx.ds.stats),
                        )
                    });
                    let (next, _) = ps3_core::Ps3System::retrain_from(
                        dec.mirror.system(),
                        Arc::clone(&fx.ds.pt),
                        Arc::clone(&fx.ds.stats),
                    );
                    dec.mirror.replace(Arc::new(next));
                });
                retrain_spans += 1;
            }
        }
        let req = gen.next_request();
        let d = dec.request(&req, &mut tracer);
        decomposed.sent += 1;
        let ok = matches!(reply_of(&d.wire_body), Ok((_, true)));
        if ok {
            decomposed.succeeded += 1;
            if sampled(args.seed, "decompose", decomposed.sent) {
                checks.check(&mut checker, &req, &d.wire_body);
            }
        } else {
            decomposed.failed += 1;
        }
        if d.counts.frac.to_bits() != d.outcome.meta.planned_frac.to_bits() {
            divergences += 1;
        }
        // CI coverage of ungrouped scalar answers against the truth.
        let mut ci = (0u32, 0u32);
        if let QuerySpec::Scalar(q) = &req.query {
            if q.group_by.is_empty() && !d.outcome.meta.exact {
                let t = truth
                    .entry(req.query.fingerprint())
                    .or_insert_with(|| ground_truth(&fx.system, &req.query, &pool));
                if let (Some(tv), Some(ev)) = (
                    t.groups.values().next(),
                    d.outcome.answer.groups.values().next(),
                ) {
                    for ((tv, ev), e) in tv
                        .iter()
                        .zip(ev)
                        .zip(&d.outcome.meta.error_estimate.per_agg)
                    {
                        if e.ci_half_width.is_finite() {
                            ci.1 += 1;
                            ci.0 += u32::from((ev - tv).abs() <= e.ci_half_width);
                        }
                    }
                }
            }
        }
        let resp_bytes = d.wire_body.len() + 4;
        rows.push((d.counts, d.req_bytes, resp_bytes, ci));
    }
    phases.push(decomposed.clone());
    if fx.router.stats().retrains == 0 {
        retrain(&fx);
    }
    let freeze_ms: Vec<f64> = (0..3)
        .map(|i| {
            let system = fx.router.system(fx.table);
            let path = scratch.join(format!("freeze-{i}.ps3"));
            let started = Instant::now();
            ps3_core::freeze(&system, &path).expect("freeze");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let final_stats = fx.router.stats();

    // Answer checks on the open phases.
    checks.open(&mut checker, args.seed, "open", &untraced);
    checks.open(&mut checker, args.seed, "open-traced", &traced);
    let end_server = fx.server.stats();
    let planned_fracs: Vec<f64> = untraced
        .requests
        .iter()
        .zip(&untraced.samples)
        .chain(traced.requests.iter().zip(&traced.samples))
        .filter(|(r, _)| matches!(r.budget, Budget::ErrorTarget { .. }))
        .filter_map(|(_, s)| match decode_body(s.body.as_ref()?) {
            Ok(Frame::Response(r)) => Some(r.planned_frac),
            _ => None,
        })
        .collect();
    fx.shutdown();
    router_b.shutdown();

    // Per-request span sums, by name, over the decomposition's spans.
    let spans = &tracer.spans()[first_span..];
    let selfs = self_times(tracer.spans());
    let selfs = &selfs[first_span..];
    let mut by_req: HashMap<u64, HashMap<&'static str, f64>> = HashMap::new();
    let mut self_by_req: HashMap<u64, HashMap<&'static str, f64>> = HashMap::new();
    for (s, &own) in spans.iter().zip(selfs) {
        *by_req
            .entry(s.request)
            .or_default()
            .entry(s.name)
            .or_default() += s.duration_ns() as f64;
        *self_by_req
            .entry(s.request)
            .or_default()
            .entry(s.name)
            .or_default() += own as f64;
    }
    let mut reqs: Vec<u64> = by_req.keys().copied().collect();
    reqs.sort_unstable();
    let us = |req: u64, name: &str| self_by_req[&req].get(name).map(|ns| ns / 1e3);
    let stage_names = ["features", "pick", "exec", "estimate", "sketch"];
    let stage_sum = |req: u64| stage_names.iter().filter_map(|n| us(req, n)).sum::<f64>();
    let metric_us = |name: &str| per_request(reqs.iter().map(|&r| us(r, name)));

    let (s0, v0, p0) = before;
    let (s1, p1) = after;
    let d_hits = (s1.answers.hits - s0.answers.hits) as f64;
    let d_miss = (s1.answers.misses - s0.answers.misses) as f64;
    let d_plans = (s1.planner.plans - s0.planner.plans) as f64;
    let d_probes = (s1.planner.probes - s0.planner.probes) as f64;
    let d_probe_hits = (s1.planner.probe_hits - s0.planner.probe_hits) as f64;
    let counts: Vec<_> = rows.iter().map(|r| &r.0).collect();
    let executing: Vec<_> = counts.iter().filter(|c| c.executions > 0).collect();
    let looked_up: Vec<_> = counts.iter().filter(|c| c.feature_lookups > 0).collect();
    let ci_cov: (u32, u32) = rows
        .iter()
        .fold((0, 0), |a, r| (a.0 + r.3 .0, a.1 + r.3 .1));
    let total_rows: Vec<f64> = executing
        .iter()
        .filter(|c| c.rows > 0)
        .map(|c| c.rows as f64)
        .collect();
    let ns_per_row =
        per_request(reqs.iter().zip(&counts).map(|(&r, c)| {
            (c.rows > 0).then(|| us(r, "exec").unwrap_or(0.0) * 1e3 / c.rows as f64)
        }));
    let p50 = |p: &OpenPhase| quantile(&p.latencies(), 0.5);

    let metrics =
        vec![
            Metric {
                name: "net.wire_overhead_us",
                value: per_request(
                    reqs.iter()
                        .map(|&r| Some(us(r, "net.wire")? - us(r, "router.answer")?)),
                ),
                unit: "us",
            },
            Metric {
                name: "net.req_encode_us",
                value: metric_us("net.req_encode"),
                unit: "us",
            },
            Metric {
                name: "net.req_decode_us",
                value: metric_us("net.req_decode"),
                unit: "us",
            },
            Metric {
                name: "net.resp_encode_us",
                value: metric_us("net.resp_encode"),
                unit: "us",
            },
            Metric {
                name: "net.resp_decode_us",
                value: metric_us("net.resp_decode"),
                unit: "us",
            },
            Metric {
                name: "net.req_bytes",
                value: median(&rows.iter().map(|r| r.1 as f64).collect::<Vec<_>>()),
                unit: "bytes",
            },
            Metric {
                name: "net.resp_bytes",
                value: median(&rows.iter().map(|r| r.2 as f64).collect::<Vec<_>>()),
                unit: "bytes",
            },
            Metric {
                name: "net.error_frames",
                value: (end_server.errors - v0.errors) as f64,
                unit: "count",
            },
            Metric {
                name: "router.answer_us",
                value: metric_us("router.answer"),
                unit: "us",
            },
            Metric {
                name: "router.overhead_us",
                value: per_request(
                    reqs.iter()
                        .map(|&r| Some(us(r, "router.answer")? - stage_sum(r))),
                ),
                unit: "us",
            },
            Metric {
                name: "router.queue_hop_us",
                value: per_request(reqs.iter().map(|&r| {
                    Some(us(r, "router.tenant_cached")? - us(r, "router.answer_cached")?)
                })),
                unit: "us",
            },
            Metric {
                name: "router.hit_ratio",
                value: ratio(d_hits, d_hits + d_miss),
                unit: "ratio",
            },
            Metric {
                name: "router.executions_per_req",
                value: ratio((s1.executions - s0.executions) as f64, open_requests),
                unit: "count",
            },
            Metric {
                name: "router.coalesced",
                value: (s1.coalesced - s0.coalesced) as f64,
                unit: "count",
            },
            Metric {
                name: "planner.probes_per_plan",
                value: ratio(d_probes, d_plans),
                unit: "count",
            },
            Metric {
                name: "planner.probe_hit_ratio",
                value: ratio(d_probe_hits, d_probes),
                unit: "ratio",
            },
            Metric {
                name: "planner.planned_frac",
                value: median(&planned_fracs),
                unit: "ratio",
            },
            Metric {
                name: "features.us",
                value: per_request(reqs.iter().zip(&counts).map(|(&r, c)| {
                    if c.feature_misses > 0 {
                        us(r, "features")
                    } else {
                        None
                    }
                })),
                unit: "us",
            },
            Metric {
                name: "features.hit_ratio",
                value: ratio(
                    looked_up.iter().filter(|c| c.feature_misses == 0).count() as f64,
                    looked_up.len() as f64,
                ),
                unit: "ratio",
            },
            Metric {
                name: "pick.us",
                value: metric_us("pick"),
                unit: "us",
            },
            Metric {
                name: "pick.clustering_us",
                value: median(
                    &executing
                        .iter()
                        .map(|c| c.clustering_ms * 1e3)
                        .collect::<Vec<_>>(),
                ),
                unit: "us",
            },
            Metric {
                name: "pick.partitions",
                value: mean(
                    &executing
                        .iter()
                        .map(|c| c.partitions as f64)
                        .collect::<Vec<_>>(),
                ),
                unit: "count",
            },
            Metric {
                name: "pick.outliers",
                value: mean(
                    &executing
                        .iter()
                        .map(|c| c.outliers as f64)
                        .collect::<Vec<_>>(),
                ),
                unit: "count",
            },
            Metric {
                name: "exec.us",
                value: metric_us("exec"),
                unit: "us",
            },
            Metric {
                name: "exec.rows",
                value: mean(&total_rows),
                unit: "count",
            },
            Metric {
                name: "exec.ns_per_row",
                value: ns_per_row,
                unit: "ns",
            },
            Metric {
                name: "estimate.us",
                value: metric_us("estimate"),
                unit: "us",
            },
            Metric {
                name: "estimate.ci_cover_ratio",
                value: ratio(f64::from(ci_cov.0), f64::from(ci_cov.1)),
                unit: "ratio",
            },
            Metric {
                name: "sketch.us",
                value: metric_us("sketch"),
                unit: "us",
            },
            Metric {
                name: "pool.tasks_per_req",
                value: ratio((p1 - p0) as f64, open_requests),
                unit: "count",
            },
            Metric {
                name: "setup.dataset_s",
                value: setup_metrics[0],
                unit: "s",
            },
            Metric {
                name: "setup.training_data_s",
                value: setup_metrics[1],
                unit: "s",
            },
            Metric {
                name: "setup.models_s",
                value: setup_metrics[2],
                unit: "s",
            },
            Metric {
                name: "setup.lss_s",
                value: setup_metrics[3],
                unit: "s",
            },
            Metric {
                name: "retrain.sweeps",
                value: f64::from(final_stats.retrain_sweeps),
                unit: "count",
            },
            Metric {
                name: "persist.freeze_ms",
                value: median(&freeze_ms),
                unit: "ms",
            },
            Metric {
                name: "self.request_us",
                value: metric_us("request"),
                unit: "us",
            },
            Metric {
                name: "self.pipeline_us",
                value: metric_us("pipeline"),
                unit: "us",
            },
            Metric {
                name: "trace.overhead_us",
                value: (p50(&traced) - p50(&untraced)) * 1e3,
                unit: "us",
            },
            Metric {
                name: "trace.decomposed",
                value: rows.len() as f64,
                unit: "count",
            },
        ];

    let path = crate::trace_path(args);
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        tracer.write_tsv(&mut out)?;
        out.flush()
    });
    if let Err(e) = written {
        eprintln!("servebench: could not write {}: {e}", path.display());
    }

    let attempted: u64 = phases.iter().map(|p| p.sent).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum::<u64>() + checks.mismatches;
    let mut provenance = base_provenance(args);
    let (late, _) = lateness_json(&traced);
    provenance.extend([
        ("phases", phases_json(&phases)),
        ("traced_open_lateness", late),
        (
            "open_p50_ms",
            Json::obj(vec![
                ("untraced", Json::Num(p50(&untraced))),
                ("traced", Json::Num(p50(&traced))),
            ]),
        ),
        (
            "checks",
            Json::obj(vec![
                ("checked", Json::Int(checks.checked)),
                ("mismatches", Json::Int(checks.mismatches)),
                ("decomposition_divergences", Json::Int(divergences)),
            ]),
        ),
        ("decomposition_retrains", Json::Int(retrain_spans)),
        ("spans", Json::Int(tracer.spans().len() as u64)),
        ("span_dump", Json::Str(crate::shown(&path))),
    ]);
    RunResult {
        correct: checks.mismatches == 0 && divergences == 0,
        attempted,
        failed,
        metrics,
        provenance,
    }
}
